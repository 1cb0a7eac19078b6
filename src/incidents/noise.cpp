#include "incidents/noise.hpp"

#include <algorithm>

#include "net/cidr.hpp"

namespace at::incidents {

std::vector<DayVolume> DailyNoiseModel::sample_month(util::SimTime start,
                                                     std::size_t days) const {
  // Fraction of daily alerts that are repeated scan probes (~80K/94K).
  constexpr double kScanFraction = 0.85;
  util::Rng rng(config_.seed ^ static_cast<std::uint64_t>(start));
  std::vector<DayVolume> month;
  month.reserve(days);
  for (std::size_t d = 0; d < days; ++d) {
    DayVolume day;
    day.day_start = util::start_of_day(start) + static_cast<util::SimTime>(d) * util::kDay;
    const double draw = rng.normal(config_.mean_daily, config_.stddev_daily);
    day.total = draw < 1000.0 ? 1000ULL : static_cast<std::uint64_t>(draw);
    day.repeated_scans = static_cast<std::uint64_t>(
        static_cast<double>(day.total) * kScanFraction);
    // Remaining volume: mostly legitimate operations, a sliver of
    // significant-but-inconclusive alerts.
    const std::uint64_t rest = day.total - day.repeated_scans;
    day.benign_ops = rest * 9 / 10;
    day.other = rest - day.benign_ops;
    month.push_back(day);
  }
  return month;
}

std::vector<alerts::Alert> DailyNoiseModel::materialize_day(const DayVolume& day,
                                                            std::size_t budget) const {
  using alerts::AlertType;
  util::Rng rng(config_.seed ^ static_cast<std::uint64_t>(day.day_start) ^ 0x9e3779b9ULL);
  const auto total = static_cast<double>(day.total);
  std::vector<alerts::Alert> out;
  out.reserve(budget);

  static constexpr AlertType kScanTypes[] = {
      AlertType::kPortScan, AlertType::kAddressScan, AlertType::kVulnScanStruts,
      AlertType::kSshVersionProbe, AlertType::kDbPortProbe, AlertType::kLoginFailure,
      AlertType::kSshBruteforce};
  static constexpr AlertType kBenignTypes[] = {
      AlertType::kLoginSuccess, AlertType::kLogout, AlertType::kJobSubmitted,
      AlertType::kJobCompleted, AlertType::kFileTransfer, AlertType::kCronRun};
  static constexpr AlertType kOtherTypes[] = {
      AlertType::kLoginUnusualTime, AlertType::kLoginNewGeo, AlertType::kWebCrawler,
      AlertType::kAuthBypassAttempt, AlertType::kSnmpSweep};

  const net::Cidr internal = net::blocks::ncsa16();
  for (std::size_t i = 0; i < budget; ++i) {
    alerts::Alert alert;
    alert.ts = day.day_start + rng.uniform_int(0, util::kDay - 1);
    const double which = rng.uniform() * total;
    if (which < static_cast<double>(day.repeated_scans)) {
      // A handful of mass scanners generate the bulk of the volume.
      alert.type = kScanTypes[rng.uniform_int(0, std::size(kScanTypes) - 1)];
      const auto scanner = static_cast<std::uint32_t>(
          0x67660000u + rng.uniform_int(0, 31));  // 103.102.x.y block
      alert.src = net::Ipv4(scanner);
    } else if (which < static_cast<double>(day.repeated_scans + day.benign_ops)) {
      alert.type = kBenignTypes[rng.uniform_int(0, std::size(kBenignTypes) - 1)];
    } else {
      alert.type = kOtherTypes[rng.uniform_int(0, std::size(kOtherTypes) - 1)];
    }
    alert.host = internal.host(static_cast<std::uint64_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(internal.host_count()) - 2))).str();
    out.push_back(std::move(alert));
  }
  std::sort(out.begin(), out.end(),
            [](const alerts::Alert& a, const alerts::Alert& b) { return a.ts < b.ts; });
  return out;
}

}  // namespace at::incidents
