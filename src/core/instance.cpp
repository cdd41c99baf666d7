#include "core/instance.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace pcmax {

namespace {

/// Leading token of the versioned wire format (satellite: wire-format v2).
constexpr const char* kWireV2Tag = "pcmax.instance.v2";

}  // namespace

const char* variant_name(ProblemVariant variant) {
  switch (variant) {
    case ProblemVariant::kClassic: return "classic";
    case ProblemVariant::kCapacity: return "capacity";
    case ProblemVariant::kIncremental: return "incremental";
  }
  PCMAX_CHECK(false, "unknown ProblemVariant value");
  return "";  // unreachable
}

ProblemVariant variant_from_name(const std::string& name) {
  if (name == "classic") return ProblemVariant::kClassic;
  if (name == "capacity") return ProblemVariant::kCapacity;
  if (name == "incremental") return ProblemVariant::kIncremental;
  PCMAX_REQUIRE(false, "unknown problem variant '" + name +
                           "' (expected classic|capacity|incremental)");
  return ProblemVariant::kClassic;  // unreachable
}

Instance::Instance(int machines, std::vector<Time> processing_times)
    : Instance(machines, std::move(processing_times), ProblemVariant::kClassic,
               VariantPayload{}) {}

Instance::Instance(int machines, std::vector<Time> processing_times,
                   ProblemVariant variant, VariantPayload payload)
    : machines_(machines),
      times_(std::move(processing_times)),
      variant_(variant),
      payload_(payload) {
  PCMAX_REQUIRE(machines_ >= 1, "instance needs at least one machine");
  PCMAX_REQUIRE(!times_.empty(), "instance needs at least one job");
  if (variant_ == ProblemVariant::kCapacity) {
    PCMAX_REQUIRE(payload_.capacity >= 1,
                  "capacity-restricted instances need capacity B >= 1");
  } else {
    PCMAX_REQUIRE(payload_ == VariantPayload{},
                  std::string("variant '") + variant_name(variant_) +
                      "' takes no payload");
  }
  Time total = 0;
  Time maximum = 0;
  for (Time t : times_) {
    PCMAX_REQUIRE(t >= 1, "processing times must be positive integers");
    PCMAX_REQUIRE(total <= std::numeric_limits<Time>::max() - t,
                  "total processing time overflows");
    total += t;
    maximum = std::max(maximum, t);
  }
  total_time_ = total;
  max_time_ = maximum;
}

Instance Instance::capacity_restricted(int machines,
                                       std::vector<Time> processing_times,
                                       Time capacity) {
  return Instance(machines, std::move(processing_times),
                  ProblemVariant::kCapacity, VariantPayload{capacity});
}

Instance Instance::incremental(int machines,
                               std::vector<Time> processing_times) {
  return Instance(machines, std::move(processing_times),
                  ProblemVariant::kIncremental, VariantPayload{});
}

Instance Instance::with_variant(const Instance& base, ProblemVariant variant,
                                VariantPayload payload) {
  return Instance(base.machines_,
                  std::vector<Time>(base.times_.begin(), base.times_.end()),
                  variant, payload);
}

std::string Instance::to_string() const {
  std::ostringstream os;
  if (!is_classic()) {
    // Versioned form: `pcmax.instance.v2 <variant> [B] m n t_1 ... t_n`.
    // Classic instances stay on the legacy line so pre-variant files and
    // golden strings remain byte-identical.
    os << kWireV2Tag << ' ' << variant_name(variant_);
    if (variant_ == ProblemVariant::kCapacity) os << ' ' << payload_.capacity;
    os << ' ';
  }
  os << machines_ << ' ' << jobs();
  for (Time t : times_) os << ' ' << t;
  return os.str();
}

Instance Instance::parse(const std::string& text) {
  std::istringstream is(text);
  ProblemVariant variant = ProblemVariant::kClassic;
  VariantPayload payload{};
  std::string head;
  // Peek at the first token: the v2 header is the only non-numeric lead-in.
  const std::istringstream::pos_type start = is.tellg();
  if (is >> head && head == kWireV2Tag) {
    std::string name;
    PCMAX_REQUIRE(static_cast<bool>(is >> name),
                  "expected a variant name after 'pcmax.instance.v2'");
    variant = variant_from_name(name);
    if (variant == ProblemVariant::kCapacity) {
      PCMAX_REQUIRE(static_cast<bool>(is >> payload.capacity),
                    "expected capacity B after 'capacity'");
    }
  } else {
    is.clear();
    is.seekg(start);
  }
  int m = 0;
  int n = 0;
  PCMAX_REQUIRE(static_cast<bool>(is >> m >> n), "expected 'm n t_1 ... t_n'");
  PCMAX_REQUIRE(n >= 1, "job count must be positive");
  // n comes from the input: reserve no more than the text can hold, at two
  // characters (a separator and a digit) per time.
  std::vector<Time> times;
  times.reserve(std::min(static_cast<std::size_t>(n), text.size() / 2));
  for (int j = 0; j < n; ++j) {
    Time t = 0;
    PCMAX_REQUIRE(static_cast<bool>(is >> t), "missing processing time");
    times.push_back(t);
  }
  Time extra;
  PCMAX_REQUIRE(!(is >> extra), "trailing tokens after processing times");
  return Instance(m, std::move(times), variant, payload);
}

std::ostream& operator<<(std::ostream& os, const Instance& instance) {
  return os << instance.to_string();
}

}  // namespace pcmax
