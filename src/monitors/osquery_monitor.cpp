#include "alerts/taxonomy.hpp"
#include "monitors/osquery_monitor.hpp"

#include "util/strings.hpp"

namespace at::monitors {

const char* to_string(SyscallKind kind) noexcept {
  switch (kind) {
    case SyscallKind::kOpen: return "open";
    case SyscallKind::kUnlink: return "unlink";
    case SyscallKind::kExecve: return "execve";
    case SyscallKind::kConnect: return "connect";
    case SyscallKind::kChmod: return "chmod";
    case SyscallKind::kModuleLoad: return "module_load";
    case SyscallKind::kSetuid: return "setuid";
  }
  return "?";
}

OsqueryMonitor::OsqueryMonitor(alerts::AlertSink& sink)
    : Monitor("osquery", alerts::Origin::kOsquery, sink) {}

void OsqueryMonitor::on_process(const ProcessEvent& event) {
  ++events_seen_;
  auto sym = symbolizer_.symbolize(event.cmdline, util::start_of_day(event.ts));
  if (!sym) {
    ++unmapped_;
    return;
  }
  alerts::Alert alert = std::move(sym->alert);
  alert.ts = event.ts;  // process events carry exact timestamps
  alert.host = event.host;
  alert.user = event.user;
  alert.add_meta("pid", std::to_string(event.pid));
  alert.add_meta("cmd", event.cmdline);
  sanitizer_.sanitize(alert);  // masks every metadata value, `cmd` included
  emit(std::move(alert));
}

AuditdMonitor::AuditdMonitor(alerts::AlertSink& sink)
    : Monitor("auditd", alerts::Origin::kAuditd, sink) {}

void AuditdMonitor::on_syscall(const SyscallEvent& event) {
  using enum alerts::AlertType;
  ++events_seen_;

  alerts::Alert alert;
  alert.ts = event.ts;
  alert.host = event.host;
  alert.user = event.user;
  alert.add_meta("syscall", to_string(event.kind));
  if (!event.path.empty()) alert.add_meta("path", event.path);

  switch (event.kind) {
    case SyscallKind::kOpen:
      if (event.path == "/etc/shadow") {
        alert.type = kCredentialDump;
      } else if (util::contains(event.path, "id_rsa")) {
        alert.type = kSshKeyTheft;
      } else if (util::contains(event.path, "known_hosts")) {
        alert.type = kKnownHostsEnumeration;
      } else {
        return;  // ordinary opens are not alert-worthy
      }
      break;
    case SyscallKind::kUnlink:
      if (util::contains(event.path, "/var/log") || util::contains(event.path, "wtmp")) {
        alert.type = kLogTampering;
      } else {
        return;
      }
      break;
    case SyscallKind::kExecve:
      if (util::starts_with(event.path, "/tmp/")) {
        alert.type = kFileDroppedTmp;
      } else {
        return;
      }
      break;
    case SyscallKind::kModuleLoad:
      alert.type = kInstallKernelModule;
      break;
    case SyscallKind::kSetuid:
      alert.type = kPrivilegeEscalation;
      break;
    case SyscallKind::kChmod:
      if (util::contains(event.detail, "4755") || util::contains(event.detail, "u+s")) {
        alert.type = kSetuidBinaryCreated;
      } else {
        return;
      }
      break;
    case SyscallKind::kConnect:
      return;  // network side is Zeek's job; avoid double-reporting
    default:
      return;  // a kind outside the taxonomy maps to no alert
  }
  emit(std::move(alert));
}

}  // namespace at::monitors
