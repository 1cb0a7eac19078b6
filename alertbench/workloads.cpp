#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <span>
#include <string>

#include "alerts/queue.hpp"
#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/annotate.hpp"
#include "incidents/generator.hpp"
#include "monitors/zeek_monitor.hpp"
#include "net/cidr.hpp"
#include "recorder.hpp"
#include "testbed/correlator.hpp"
#include "testbed/daemon.hpp"
#include "testbed/lifecycle.hpp"
#include "testbed/pipeline.hpp"
#include "testbed/sandbox.hpp"
#include "testbed/ssh_auditor.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"

namespace alertbench {

double rss_mb(const char* field) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      kib = std::strtod(line + len, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

namespace {

using namespace at;

/// Daemon entity shards: three workers plus the one producer thread.
constexpr std::size_t kShards = 3;
/// paced_attack: distinct entities and their time spread.
constexpr std::size_t kEntities = 12'000;
constexpr util::SimTime kEntitySpread = 26 * util::kHour;
constexpr double kIncidentShare = 0.15;
/// paced_attack: the fixed offered rate, alerts per second.
constexpr double kPacedRate = 50'000.0;
/// live_flows: simulated seconds, flows per second, blackholed scanner nets.
constexpr util::SimTime kLiveSeconds = 3600;
constexpr std::size_t kFlowsPerSecond = 300;
constexpr std::size_t kScannerNets = 400;

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------ span names

struct Names {
  std::uint32_t submit, pull, drain, factory, fg_forward, rules, reset,
      fires, fg_learn, bhr_block, sim_run, sim_event, filter_batch, scan_record, ssh_audit,
      zeek, correlator, pipeline, expire, prune, populate, schedule, sample;
};

const Names& names() {
  static const Names n = [] {
    Recorder& r = recorder();
    Names out{};
    out.submit = r.intern("testbed.submit");
    out.pull = r.intern("testbed.pull");
    out.drain = r.intern("testbed.drain_idle");
    out.factory = r.intern("detect.factory");
    out.fg_forward = r.intern("fg.forward_observe");
    out.rules = r.intern("detect.rules_observe");
    out.reset = r.intern("detect.reset");
    out.fires = r.intern("detect.fires");
    out.fg_learn = r.intern("fg.learn");
    out.bhr_block = r.intern("bhr.block");
    out.sim_run = r.intern("sim.run");
    out.sim_event = r.intern("sim.event");
    out.filter_batch = r.intern("bhr.filter_batch");
    out.scan_record = r.intern("bhr.scan_record");
    out.ssh_audit = r.intern("testbed.ssh_audit");
    out.zeek = r.intern("monitors.zeek");
    out.correlator = r.intern("testbed.correlator");
    out.pipeline = r.intern("testbed.pipeline");
    out.expire = r.intern("bhr.expire");
    out.prune = r.intern("monitors.prune");
    out.populate = r.intern("bhr.populate");
    // The benchmark's own producer work, outside bench.span_coverage.
    out.schedule = r.intern("bench.schedule");
    out.sample = r.intern("bench.sample_depths");
    return out;
  }();
  return n;
}

// ------------------------------------------------------ deployed detectors

/// Detector training corpus: fixed, as a deployment trains once offline.
const incidents::Corpus& training() {
  static const incidents::Corpus corpus = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    config.seed = 7;
    config.threads = 1;
    return incidents::CorpusGenerator(config).generate();
  }();
  return corpus;
}

struct Deployed {
  std::shared_ptr<const fg::CompiledParams> compiled;
  std::shared_ptr<const detect::RuleBasedDetector> rules;
};

/// The detector set Testbed's constructor deploys: the factor graph
/// trained on the corpus, plus the rule-based signatures.
Deployed train_deployed(const incidents::Corpus& corpus) {
  fg::ModelParams params;
  {
    ScopedSpan span(names().fg_learn);
    params = fg::learn_params(corpus);
  }
  Deployed out;
  out.compiled = fg::compile_params(std::move(params));
  out.rules = std::make_shared<const detect::RuleBasedDetector>(
      detect::RuleBasedDetector::train(corpus.incidents));
  return out;
}

/// Forwards to a deployed detector and times each call on whichever
/// thread runs it (shard workers inside the daemon).
class TimedDetector final : public detect::Detector {
 public:
  TimedDetector(std::unique_ptr<detect::Detector> inner, std::uint32_t span)
      : inner_(std::move(inner)), span_(span) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset() override {
    ScopedSpan span(names().reset);
    inner_->reset();
  }
  std::optional<detect::Detection> observe(const alerts::Alert& alert,
                                           std::size_t index) override {
    std::optional<detect::Detection> detection;
    {
      ScopedSpan span(span_, index);
      detection = inner_->observe(alert, index);
    }
    if (detection) recorder().add(names().fires, 1);
    return detection;
  }
  std::optional<detect::Detection> observe_batch(
      std::span<const alerts::Alert* const> alerts, std::size_t first_index) override {
    std::optional<detect::Detection> detection;
    {
      ScopedSpan span(span_, first_index);
      detection = inner_->observe_batch(alerts, first_index);
    }
    if (detection) recorder().add(names().fires, 1);
    return detection;
  }

 private:
  std::unique_ptr<detect::Detector> inner_;
  std::uint32_t span_;
};

/// Registers the deployed set with `config`'s factor-graph policy, as
/// Testbed's constructor does.
template <typename Sink>
void add_deployed(Sink& sink, const Deployed& deployed, bool traced,
                  const testbed::TestbedConfig& config = {}) {
  const auto add = [&](std::string name, testbed::DetectorFactory make, std::uint32_t span) {
    if (!traced) {
      sink.add_detector(std::move(name), std::move(make));
      return;
    }
    sink.add_detector(std::move(name), [make = std::move(make), span] {
      ScopedSpan timed(names().factory);
      return std::unique_ptr<detect::Detector>(std::make_unique<TimedDetector>(make(), span));
    });
  };
  const auto compiled = deployed.compiled;
  const double threshold = config.fg_threshold;
  const detect::FgInference inference = config.fg_inference;
  add("factor-graph",
      [compiled, threshold, inference] {
        return std::make_unique<detect::FactorGraphDetector>(
            compiled, threshold, alerts::AttackStage::kInProgress, false, inference);
      },
      names().fg_forward);
  const auto rules = deployed.rules;
  add("rule-based",
      [rules] {
        auto copy = std::make_unique<detect::RuleBasedDetector>(*rules);
        copy->reset();
        return copy;
      },
      names().rules);
}

// ---------------------------------------------------------- rendering

std::string render_note(util::SimTime ts, const std::string& entity,
                        const std::string& detector, const std::string& reason, double score,
                        const std::optional<net::Ipv4>& source) {
  char number[40];
  std::snprintf(number, sizeof number, "%.17g", score);
  std::string line = std::to_string(ts);
  line += '\t' + entity + '\t' + detector + '\t' + reason + '\t' + number + '\t' +
          (source ? source->str() : std::string("-"));
  return line;
}

std::vector<std::string> render_notes(const std::vector<testbed::Notification>& notes) {
  std::vector<std::string> out;
  out.reserve(notes.size());
  for (const auto& n : notes) {
    out.push_back(render_note(n.ts, n.entity, n.detector, n.reason, n.score, n.source));
  }
  return out;
}

std::vector<std::string> render_audit(const bhr::BlackHoleRouter& router) {
  std::vector<std::string> out;
  for (const bhr::ApiCall& call : router.audit_log()) {
    out.push_back(std::to_string(call.ts) + '\t' + call.method + '\t' + call.source.str() +
                  '/' + std::to_string(call.prefix_len) + '\t' + call.client + '\t' +
                  (call.ok ? "ok" : "refused"));
  }
  return out;
}

/// Positions where two rendered streams differ, plus the length difference.
std::uint64_t mismatches(const std::vector<std::string>& got,
                         const std::vector<std::string>& want) {
  const std::size_t common = std::min(got.size(), want.size());
  std::uint64_t bad = std::max(got.size(), want.size()) - common;
  for (std::size_t i = 0; i < common; ++i) bad += got[i] != want[i] ? 1 : 0;
  return bad;
}

std::uint64_t gap(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

void fail(RepResult& out, std::uint64_t count, const std::string& what) {
  if (count == 0) return;
  out.failed += count;
  out.failures.push_back(what + ": " + std::to_string(count));
}

// ------------------------------------------------------- daemon workload

struct DaemonOracle {
  std::vector<std::string> verdicts;
  std::vector<std::string> audit;
  std::uint64_t kept = 0;
  std::uint64_t inputs = 0;
  double serial_s = 0.0;
};

/// Serial AlertPipeline over the same input: the byte-identity reference.
template <typename Feed>
DaemonOracle serial_oracle(Feed&& feed) {
  DaemonOracle oracle;
  const Deployed deployed = train_deployed(training());
  bhr::BlackHoleRouter router;
  testbed::AlertPipeline pipeline(testbed::PipelineConfig{}, &router);
  add_deployed(pipeline, deployed, false);
  const std::int64_t start = now_ns();
  feed(pipeline);
  oracle.serial_s = seconds(now_ns() - start);
  oracle.verdicts = render_notes(pipeline.notifications());
  oracle.audit = render_audit(router);
  oracle.kept = pipeline.alerts_after_filter();
  oracle.inputs = pipeline.alerts_in();
  return oracle;
}

/// Daemon plus the program set-up it needs, built in place. The router is
/// declared first so it outlives the daemon, whose stop() still applies
/// released blocks.
struct DaemonSetup {
  bhr::BlackHoleRouter router;
  std::unique_ptr<testbed::DetectionDaemon> daemon;

  explicit DaemonSetup(bool traced) {
    const Deployed deployed = train_deployed(training());
    testbed::DaemonConfig config;
    config.shards = kShards;
    daemon = std::make_unique<testbed::DetectionDaemon>(config, &router);
    add_deployed(*daemon, deployed, traced);
    daemon->start();
  }
};

/// The operator side: pulls released alerts and times each verdict from
/// its input's due time.
struct Consumer {
  std::vector<std::int64_t> due_ns;  ///< by seq (1-based)
  std::vector<alerts::AlertQueue::Ptr> released;
  std::vector<Weighted>* latency = nullptr;
  std::uint64_t verdicts = 0;
  std::uint64_t worker_errors = 0;

  void pull(testbed::DetectionDaemon& daemon) {
    ScopedSpan span(names().pull);
    auto batch = daemon.drain_alerts();
    const std::int64_t released_at = now_ns();
    for (auto& alert : batch) {
      if (alert->category() == alerts::DaemonAlert::kVerdict) {
        const auto& verdict = static_cast<const alerts::VerdictAlert&>(*alert);
        ++verdicts;
        if (verdict.seq < due_ns.size() && due_ns[verdict.seq] != 0) {
          latency->emplace_back(
              static_cast<double>(released_at - due_ns[verdict.seq]) * 1e-3, 1);
        }
      } else if (dynamic_cast<const alerts::WorkerErrorAlert*>(alert.get()) != nullptr) {
        ++worker_errors;
      }
      released.push_back(std::move(alert));
    }
  }
};

/// Output checks of the daemon workload.
void check_daemon(const DaemonOracle& oracle, DaemonSetup& setup, const Consumer& consumer,
                  std::uint64_t submitted, std::uint64_t accepted, RepResult& out) {
  std::vector<std::string> verdicts;
  for (const auto& alert : consumer.released) {
    if (alert->category() != alerts::DaemonAlert::kVerdict) continue;
    const auto& v = static_cast<const alerts::VerdictAlert&>(*alert);
    verdicts.push_back(render_note(v.ts, v.entity, v.detector, v.reason, v.score, v.source));
  }
  fail(out, mismatches(verdicts, oracle.verdicts), "verdicts differing from the serial oracle");
  fail(out, mismatches(render_audit(setup.router), oracle.audit),
       "BHR audit entries differing from the serial oracle");
  const auto stats = setup.daemon->stats();
  fail(out, gap(stats.kept, accepted), "accepted alerts missing from stats()");
  fail(out, gap(stats.submitted, submitted), "submitted alerts missing from stats()");
  fail(out, gap(stats.kept, oracle.kept), "kept alerts differing from the serial oracle");
  fail(out, consumer.worker_errors, "WorkerErrorAlerts");
}

/// Per-layer metrics of the daemon workload (traced reps only).
void daemon_layers(DaemonSetup& setup, const Consumer& consumer, std::int64_t wall0,
                   std::int64_t wall1, const std::vector<double>& depths, RepResult& out) {
  const std::int64_t wall_ns = wall1 - wall0;
  const auto t = recorder().summarize();
  const auto stats = setup.daemon->stats();
  auto& m = out.layer;
  const auto& submit = t.at("testbed.submit");
  m["testbed.submit_ns_per_alert"] = ratio(static_cast<double>(submit.total_ns),
                                           static_cast<double>(submit.spans));
  m["testbed.coordinator_share"] =
      ratio(static_cast<double>(submit.total_ns), static_cast<double>(wall_ns));
  m["testbed.reject_ratio"] =
      ratio(static_cast<double>(stats.rejected),
            static_cast<double>(stats.submitted + stats.rejected));
  m["testbed.drain_wait_s"] = seconds(t.at("testbed.drain_idle").total_ns);
  const auto& fwd = t.at("fg.forward_observe");
  const auto& rules = t.at("detect.rules_observe");
  const auto& factory = t.at("detect.factory");
  m["testbed.worker_busy_share"] =
      ratio(static_cast<double>(fwd.total_ns + rules.total_ns + factory.total_ns),
            static_cast<double>(wall_ns) * static_cast<double>(kShards));
  if (const auto p50 = percentile(depths, 0.5)) m["testbed.ring_depth_p50"] = *p50;
  m["testbed.ring_depth_max"] =
      depths.empty() ? 0.0 : *std::max_element(depths.begin(), depths.end());
  m["testbed.pump_ns_per_verdict"] =
      ratio(static_cast<double>(t.at("testbed.pull").total_ns),
            static_cast<double>(consumer.verdicts));
  m["testbed.tracked_entities"] = static_cast<double>(stats.tracked_entities);
  m["testbed.evicted_entities"] = static_cast<double>(stats.evicted_entities);
  m["testbed.checkpoints"] = static_cast<double>(stats.checkpoints);
  m["fg.forward_observe_ns"] =
      ratio(static_cast<double>(fwd.total_ns), static_cast<double>(fwd.spans));
  m["detect.rules_observe_ns"] =
      ratio(static_cast<double>(rules.total_ns), static_cast<double>(rules.spans));
  m["detect.factory_ns"] =
      ratio(static_cast<double>(factory.total_ns), static_cast<double>(factory.spans));
  m["detect.fire_ratio"] =
      ratio(static_cast<double>(t.at("detect.fires").counter),
            static_cast<double>(fwd.spans + rules.spans));
  m["fg.learn_s"] = seconds(t.at("fg.learn").total_ns);
  m["bench.span_coverage"] = recorder().coverage(recorder().local().thread, wall0, wall1);

  // bhr.block_ns: the released block sequence replayed on a fresh router.
  bhr::BlackHoleRouter fresh;
  std::int64_t block_ns = 0;
  std::uint64_t blocks = 0;
  for (const auto& alert : consumer.released) {
    if (alert->category() != alerts::DaemonAlert::kBhr) continue;
    const auto& action = static_cast<const alerts::BhrActionAlert&>(*alert);
    const std::int64_t start = now_ns();
    {
      ScopedSpan span(names().bhr_block);
      (void)fresh.block(action.source, action.ts, action.ttl, action.reason,
                        "attacktagger-pipeline");
    }
    block_ns += now_ns() - start;
    ++blocks;
  }
  m["bhr.block_ns"] = ratio(static_cast<double>(block_ns), static_cast<double>(blocks));
}

void sample_depths(testbed::DetectionDaemon& daemon, std::vector<double>& depths) {
  ScopedSpan span(names().sample);
  const auto now = daemon.ring_depths();
  depths.push_back(static_cast<double>(*std::max_element(now.begin(), now.end())));
}

/// paced_attack's stream: ~12K distinct entities with 8-64 alert histories;
/// 15% replay incident timelines, the rest are benign or attempt activity.
std::vector<alerts::Alert> attack_stream(std::uint64_t seed) {
  using alerts::AlertType;
  static constexpr AlertType kBenign[] = {
      AlertType::kLoginSuccess, AlertType::kLogout,       AlertType::kJobSubmitted,
      AlertType::kJobCompleted, AlertType::kFileTransfer, AlertType::kCronRun,
      AlertType::kSoftwareUpdate, AlertType::kNfsMount};
  static constexpr AlertType kAttempt[] = {
      AlertType::kLoginFailure, AlertType::kPortScan,          AlertType::kSshVersionProbe,
      AlertType::kWebCrawler,   AlertType::kLoginUnusualTime, AlertType::kAuthBypassAttempt,
      AlertType::kDbPortProbe,  AlertType::kLoginNewGeo};
  incidents::CorpusConfig config;
  config.repetition_scale = 0.02;
  config.seed = seed * 0x9e3779b97f4a7c15ULL + 3;
  config.threads = 1;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  util::Rng rng(seed ^ 0xa77ac4b0125dULL);
  std::vector<alerts::Alert> stream;
  stream.reserve(kEntities * 40);
  for (std::size_t e = 0; e < kEntities; ++e) {
    const auto length = static_cast<std::size_t>(rng.uniform_int(8, 64));
    util::SimTime ts = rng.uniform_int(0, kEntitySpread - 1);
    // One external address per entity (75.0.0.0/8), the BHR block target.
    const net::Ipv4 source(0x4b000000u + static_cast<std::uint32_t>(e) * 13u + 1u);
    std::vector<alerts::Alert> history;
    if (rng.bernoulli(kIncidentShare)) {
      const auto& incident = corpus.incidents[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corpus.incidents.size()) - 1))];
      // Keep the whole core sequence and fill up with the timeline's other
      // alerts, preserving timeline order.
      std::vector<std::size_t> core;
      std::vector<std::size_t> other;
      for (std::size_t i = 0; i < incident.timeline.size(); ++i) {
        (incident.timeline[i].core ? core : other).push_back(i);
      }
      std::vector<std::size_t> pick = core;
      const std::size_t extra = length > core.size() ? length - core.size() : 0;
      for (const std::size_t i : rng.sample_indices(other.size(), std::min(extra, other.size()))) {
        pick.push_back(other[i]);
      }
      std::sort(pick.begin(), pick.end());
      for (const std::size_t i : pick) {
        alerts::Alert alert = incident.timeline[i].alert;
        alert.host = "atk-" + std::to_string(e);
        alert.src = source;
        history.push_back(std::move(alert));
      }
    } else {
      const std::string host = "node-" + std::to_string(e);
      const std::string user = "u" + std::to_string(e % 997);
      for (std::size_t i = 0; i < length; ++i) {
        alerts::Alert alert;
        alert.host = host;
        alert.user = user;
        if (rng.bernoulli(0.3)) {
          alert.type = kAttempt[rng.uniform_int(0, std::size(kAttempt) - 1)];
          alert.src = source;
        } else {
          alert.type = kBenign[rng.uniform_int(0, std::size(kBenign) - 1)];
        }
        history.push_back(std::move(alert));
      }
    }
    for (auto& alert : history) {
      ts += rng.uniform_int(1, 300);
      alert.ts = ts;
      stream.push_back(std::move(alert));
    }
  }
  alerts::sort_timeline(stream);
  return stream;
}

// paced_attack: owning submits of many short entity histories, offered
// open-loop at kPacedRate to the deployed detector set. Entity-mode factor-
// graph inference is left out: its multi-millisecond outliers stall the
// release frontier, which made the paced latency depend on which seed drew
// them rather than on the daemon.
class PacedAttack final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    stream_ = attack_stream(seed);
    oracle_ = serial_oracle([this](testbed::AlertPipeline& pipeline) {
      for (const auto& alert : stream_) pipeline.on_alert(alert);
    });
  }

  void setup_only(RepResult& out) override {
    const std::int64_t start = now_ns();
    DaemonSetup setup(false);
    out.setup_s = seconds(now_ns() - start);
  }

  void run_rep(bool traced, RepResult& out) override {
    const double rss0 = rss_mb("VmRSS:");
    recorder().set_enabled(traced);
    const std::int64_t setup_start = now_ns();
    DaemonSetup setup(traced);
    out.setup_s = seconds(now_ns() - setup_start);
    testbed::DetectionDaemon& daemon = *setup.daemon;
    // A schedule span, at most one pull and one submit per alert, plus the
    // depth samples.
    if (traced) recorder().prefault(3 * stream_.size() + stream_.size() / 64 + 16);
    Consumer consumer;
    consumer.due_ns.assign(stream_.size() + 2, 0);
    consumer.latency = &out.latency_us;
    std::vector<double> depths;
    std::uint64_t accepted = 0;

    const std::uint64_t faults0 = minor_faults();
    const std::int64_t wall0 = now_ns();
    const double period_ns = 1e9 / kPacedRate;
    out.gen_lag_ms.reserve(stream_.size());
    for (std::size_t i = 0; i < stream_.size(); ++i) {
      const auto due = wall0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      {
        // The slot's schedule check, wait and bookkeeping are the
        // benchmark's own work; the pull and the submit inside are the
        // program's.
        ScopedSpan slot(names().schedule, i);
        std::int64_t now = now_ns();
        if (now < due) {
          // Operator console: pull released verdicts, then wait for the
          // schedule.
          consumer.pull(daemon);
          while ((now = now_ns()) < due) {
          }
        }
        out.gen_lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
        testbed::SubmitResult result;
        {
          ScopedSpan span(names().submit, i);
          result = daemon.submit(stream_[i]);
        }
        if (result == testbed::SubmitResult::kAccepted) consumer.due_ns[++accepted] = due;
      }
      if (traced && i % 64 == 63) sample_depths(daemon, depths);
    }
    {
      ScopedSpan span(names().drain);
      daemon.drain_idle();
    }
    consumer.pull(daemon);
    const std::int64_t wall1 = now_ns();
    out.faults = minor_faults() - faults0;
    recorder().set_enabled(false);
    out.timed_s = seconds(wall1 - wall0);
    out.inputs = stream_.size();
    out.rss_mb = rss_mb("VmHWM:") - rss0;

    check_daemon(oracle_, setup, consumer, stream_.size(), accepted, out);
    const auto stats = daemon.stats();
    const double keep = ratio(static_cast<double>(stats.kept),
                              static_cast<double>(stats.submitted));
    if (keep < 0.7) {
      out.shape_failures.push_back("attack keep ratio " + std::to_string(keep) + " below 0.7");
    }
    if (stats.tracked_entities < 10'000) {
      out.shape_failures.push_back("attack tracked entities " +
                                   std::to_string(stats.tracked_entities) + " below 10000");
    }
    if (consumer.verdicts < 2'000) {
      out.shape_failures.push_back("attack verdicts " + std::to_string(consumer.verdicts) +
                                   " below 2000");
    }
    if (!traced) return;
    daemon_layers(setup, consumer, wall0, wall1, depths, out);
    incidents::ScanFilter filter(testbed::PipelineConfig{}.scan_filter_window);
    std::uint64_t kept = 0;
    const std::int64_t start = now_ns();
    for (const auto& alert : stream_) kept += filter.keep(alert) ? 1 : 0;
    out.layer["incidents.filter_ns_per_alert"] =
        ratio(static_cast<double>(now_ns() - start), static_cast<double>(stream_.size()));
    out.layer["incidents.filter_keep_ratio"] =
        ratio(static_cast<double>(kept), static_cast<double>(stream_.size()));
  }

  [[nodiscard]] std::map<std::string, std::string> params() const override {
    return {{"shards", std::to_string(kShards)},
            {"entities", std::to_string(kEntities)},
            {"alerts", std::to_string(stream_.size())},
            {"loop", "open"},
            {"paced_rate_per_s", std::to_string(static_cast<long>(kPacedRate))}};
  }
  [[nodiscard]] double serial_inputs_per_s() const override {
    return ratio(static_cast<double>(stream_.size()), oracle_.serial_s);
  }
  [[nodiscard]] bool host_scaled() const override { return false; }

 private:
  std::vector<alerts::Alert> stream_;
  DaemonOracle oracle_;
};

// ---------------------------------------------------------- live_flows

struct LiveInputs {
  std::vector<net::Flow> flows;            ///< kFlowsPerSecond per simulated second
  std::vector<std::uint32_t> scanner_nets;  ///< /24 bases blackholed in set-up
};

LiveInputs live_inputs(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x11fe0f10c5ULL);
  LiveInputs in;
  std::set<std::uint32_t> nets;
  while (nets.size() < kScannerNets) {
    nets.insert(0xb9000000u | (static_cast<std::uint32_t>(rng.uniform_int(0, 65535)) << 8));
  }
  in.scanner_nets.assign(nets.begin(), nets.end());
  const net::Cidr internal = net::blocks::ncsa16();
  const net::Cidr honeypots = net::blocks::honeypot24();
  // External sources lie outside the sandbox too: its egress policy would
  // drop their flows, which count as neither dropped at the BHR nor
  // delivered.
  const testbed::SandboxConfig sandbox = testbed::TestbedConfig{}.sandbox;
  const auto random_external = [&](std::uint32_t lo, std::uint32_t hi) {
    for (;;) {
      const auto ip = static_cast<std::uint32_t>(rng.uniform_int(lo, hi));
      const net::Ipv4 addr(ip);
      if ((ip >> 24) != 0xb9 && !internal.contains(addr) &&
          !sandbox.honeypot_segment.contains(addr) && !sandbox.overlay.contains(addr)) {
        return ip;
      }
    }
  };
  std::vector<std::uint32_t> scanners(3000);
  for (auto& ip : scanners) ip = random_external(0x01000000u, 0xdfffffffu);
  std::vector<std::uint32_t> brute(40);
  for (auto& ip : brute) ip = random_external(0x5c000000u, 0x5cffffffu);
  std::vector<std::uint32_t> clients(600);
  for (auto& ip : clients) ip = random_external(0x18000000u, 0x18ffffffu);
  static constexpr std::uint16_t kScanPorts[] = {22, 23, 80, 443, 3306, 3389, 5432, 8080};
  static constexpr std::uint16_t kServicePorts[] = {22, 80, 443};

  in.flows.reserve(static_cast<std::size_t>(kLiveSeconds) * kFlowsPerSecond);
  for (util::SimTime s = 0; s < kLiveSeconds; ++s) {
    for (std::size_t i = 0; i < kFlowsPerSecond; ++i) {
      net::Flow flow;
      flow.ts = s;
      flow.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
      const double roll = rng.uniform();
      if (roll < 0.25) {
        // Blackholed scanner nets: dropped at the BHR.
        flow.src = net::Ipv4(in.scanner_nets[static_cast<std::size_t>(
                                 rng.uniform_int(0, kScannerNets - 1))] |
                             static_cast<std::uint32_t>(rng.uniform_int(0, 255)));
        flow.dst = internal.host(static_cast<std::uint64_t>(rng.uniform_int(1, 65534)));
        flow.dst_port = kScanPorts[rng.uniform_int(0, std::size(kScanPorts) - 1)];
      } else if (roll < 0.75) {
        // Internet-wide scanners, Zipf-popular, probing the whole /16.
        flow.src = net::Ipv4(scanners[rng.zipf(scanners.size(), 1.1) - 1]);
        flow.dst = internal.host(static_cast<std::uint64_t>(rng.uniform_int(1, 65534)));
        flow.dst_port = kScanPorts[rng.uniform_int(0, std::size(kScanPorts) - 1)];
        flow.state = rng.bernoulli(0.5) ? net::ConnState::kAttempt : net::ConnState::kRejected;
      } else if (roll < 0.85) {
        // SSH bruteforce against the honeypot entry points.
        flow.src = net::Ipv4(brute[static_cast<std::size_t>(rng.uniform_int(0, 39))]);
        flow.dst = honeypots.host(static_cast<std::uint64_t>(rng.uniform_int(1, 16)));
        flow.dst_port = net::ports::kSsh;
        flow.state = net::ConnState::kRejected;
      } else {
        // Legitimate clients.
        flow.src = net::Ipv4(clients[static_cast<std::size_t>(rng.uniform_int(0, 599))]);
        flow.dst = honeypots.host(static_cast<std::uint64_t>(rng.uniform_int(1, 16)));
        flow.dst_port = kServicePorts[rng.uniform_int(0, std::size(kServicePorts) - 1)];
        flow.state = net::ConnState::kEstablished;
        flow.bytes_out = static_cast<std::uint64_t>(rng.uniform_int(200, 20'000));
        flow.bytes_in = static_cast<std::uint64_t>(rng.uniform_int(200, 200'000));
      }
      in.flows.push_back(flow);
    }
  }
  return in;
}

std::span<const net::Flow> second_of(const LiveInputs& in, util::SimTime s) {
  return std::span<const net::Flow>(in.flows).subspan(
      static_cast<std::size_t>(s) * kFlowsPerSecond, kFlowsPerSecond);
}

/// Blackhole every scanner net one host at a time (CIDR aggregation
/// collapses each full /24 into one cover).
void populate(bhr::BlackHoleRouter& router, const LiveInputs& in) {
  ScopedSpan span(names().populate);
  for (const std::uint32_t base : in.scanner_nets) {
    for (std::uint32_t h = 0; h < 256; ++h) {
      (void)router.block(net::Ipv4(base | h), 0, 0, "scanner net", "alertbench");
    }
  }
}

/// Counters compared between the Testbed run and the replay.
struct LiveOutcome {
  testbed::Testbed::Stats stats;
  std::vector<std::string> notifications;
  std::uint64_t delivered = 0;
};

std::vector<std::pair<const char*, std::uint64_t>> stat_fields(const testbed::Testbed::Stats& s) {
  return {{"events_executed", s.events_executed},   {"events_pending", s.events_pending},
          {"alerts_received", s.alerts_received},   {"alerts_forwarded", s.alerts_forwarded},
          {"alerts_in", s.alerts_in},               {"alerts_kept", s.alerts_kept},
          {"notifications", s.notifications},       {"tracked_entities", s.tracked_entities},
          {"evicted_entities", s.evicted_entities}, {"active_blocks", s.active_blocks},
          {"dropped_flows", s.dropped_flows},       {"maintenance_ticks", s.maintenance_ticks}};
}

/// Sink that times the next stage of the monitor chain.
class TimedSink final : public alerts::AlertSink {
 public:
  TimedSink(alerts::AlertSink& next, std::uint32_t span) : next_(&next), span_(span) {}
  using alerts::AlertSink::on_alert;
  void on_alert(const alerts::Alert& alert) override {
    ScopedSpan span(span_);
    next_->on_alert(alert);
  }
  void on_alert(alerts::Alert&& alert) override {
    ScopedSpan span(span_);
    next_->on_alert(std::move(alert));
  }

 private:
  alerts::AlertSink* next_;
  std::uint32_t span_;
};

/// Testbed's traffic plane rebuilt from the same public classes and
/// configs, with timed sinks between Zeek, the correlator and the
/// pipeline: the replay that the Testbed run is checked against and that
/// the traced run times.
class LiveReplay {
 public:
  LiveReplay(const LiveInputs& in, bool traced)
      : in_(in),
        auditor_(config_.ssh_auditor, router_),
        sandbox_(config_.sandbox),
        pipeline_(config_.pipeline, &router_),
        pipeline_sink_(pipeline_, names().pipeline),
        correlator_(config_.correlator, pipeline_sink_),
        correlator_sink_(correlator_, names().correlator),
        zeek_(correlator_sink_, config_.zeek) {
    const Deployed deployed = train_deployed(training());
    add_deployed(pipeline_, deployed, traced, config_);
    testbed::VmManager vms(config_.lifecycle);
    vms.provision_entry_points(0);
    for (const auto& instance : vms.instances()) {
      zeek_.set_host_name(instance.address, instance.hostname);
    }
    const std::int64_t start = now_ns();
    populate(router_, in_);
    populate_s_ = seconds(now_ns() - start);
    schedule_maintenance(60, kLiveSeconds);
  }

  void run() {
    for (util::SimTime s = 0; s < kLiveSeconds; ++s) {
      engine_.schedule_at(s, [this, s](sim::Engine&) {
        ScopedSpan span(names().sim_event, static_cast<std::uint64_t>(s));
        inject(second_of(in_, s));
      });
    }
    ScopedSpan span(names().sim_run);
    engine_.run();
  }

  [[nodiscard]] LiveOutcome outcome() const {
    LiveOutcome out;
    const auto engine = engine_.stats();
    out.stats.events_executed = engine.executed;
    out.stats.events_pending = engine.pending;
    out.stats.alerts_received = correlator_.received();
    out.stats.alerts_forwarded = correlator_.forwarded();
    out.stats.alerts_in = pipeline_.alerts_in();
    out.stats.alerts_kept = pipeline_.alerts_after_filter();
    out.stats.notifications = pipeline_.notifications().size();
    out.stats.tracked_entities = pipeline_.tracked_entities();
    out.stats.evicted_entities = pipeline_.evicted_entities();
    out.stats.active_blocks = router_.active_blocks(engine_.now());
    out.stats.dropped_flows = router_.dropped_flows();
    out.stats.maintenance_ticks = ticks_;
    out.notifications = render_notes(pipeline_.notifications());
    out.delivered = delivered_;
    return out;
  }

  [[nodiscard]] double populate_s() const noexcept { return populate_s_; }
  [[nodiscard]] std::size_t zeek_sources() const noexcept { return zeek_.tracked_sources(); }
  [[nodiscard]] std::uint64_t zeek_flows() const noexcept { return zeek_.flows_seen(); }

 private:
  void inject(std::span<const net::Flow> flows) {
    std::array<std::uint8_t, 256> verdicts;
    for (std::size_t at = 0; at < flows.size(); at += verdicts.size()) {
      const std::size_t m = std::min(verdicts.size(), flows.size() - at);
      {
        ScopedSpan span(names().filter_batch);
        router_.filter_batch(flows.subspan(at, m), std::span<std::uint8_t>(verdicts.data(), m));
      }
      for (std::size_t i = 0; i < m; ++i) {
        if (verdicts[i] == 0) admit(flows[at + i]);
      }
    }
  }

  /// The monitor path of a flow the BHR let through, as in Testbed.
  void admit(const net::Flow& flow) {
    if (flow.state != net::ConnState::kEstablished) {
      ScopedSpan span(names().scan_record);
      scans_.record(flow);
    }
    bool delivered = true;
    if (config_.sandbox.honeypot_segment.contains(flow.src) ||
        config_.sandbox.overlay.contains(flow.src)) {
      delivered = sandbox_.judge(flow) != testbed::EgressVerdict::kDroppedEgress;
    }
    if (!config_.sandbox.honeypot_segment.contains(flow.src)) {
      ScopedSpan span(names().ssh_audit);
      (void)auditor_.on_flow(flow);
    }
    {
      ScopedSpan span(names().zeek);
      zeek_.on_flow(flow);
    }
    if (delivered) ++delivered_;
  }

  void schedule_maintenance(util::SimTime period, util::SimTime until) {
    const util::SimTime first = engine_.now() + period;
    if (first > until) return;
    engine_.schedule_at(first, [this, period, until](sim::Engine& engine) {
      ScopedSpan event(names().sim_event);
      ++ticks_;
      {
        ScopedSpan span(names().expire);
        (void)router_.expire(engine.now());
      }
      {
        ScopedSpan span(names().prune);
        (void)zeek_.prune_idle(engine.now());
      }
      if (engine.now() + period <= until) schedule_maintenance(period, until);
    });
  }

  const LiveInputs& in_;
  testbed::TestbedConfig config_;
  sim::Engine engine_;
  bhr::BlackHoleRouter router_;
  bhr::ScanRecorder scans_;
  testbed::SshAuditor auditor_;
  testbed::NetworkSandbox sandbox_;
  testbed::AlertPipeline pipeline_;
  TimedSink pipeline_sink_;
  testbed::AlertCorrelator correlator_;
  TimedSink correlator_sink_;
  monitors::ZeekMonitor zeek_;
  double populate_s_ = 0.0;
  std::uint64_t ticks_ = 0;
  std::uint64_t delivered_ = 0;
};

// live_flows: the Fig-1/Fig-4 traffic plane, one sim event per second.
class LiveFlows final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    in_ = live_inputs(seed);
    LiveReplay replay(in_, false);
    replay.run();
    oracle_ = replay.outcome();
  }

  void setup_only(RepResult& out) override {
    const std::int64_t start = now_ns();
    testbed::Testbed bed(testbed::TestbedConfig{}, training());
    bed.deploy(0);
    populate(bed.router(), in_);
    bed.schedule_maintenance(60, kLiveSeconds);
    out.setup_s = seconds(now_ns() - start);
  }

  void run_rep(bool traced, RepResult& out) override {
    if (traced) {
      run_traced(out);
    } else {
      run_testbed(out);
    }
  }

  [[nodiscard]] std::map<std::string, std::string> params() const override {
    return {{"flows", std::to_string(in_.flows.size())},
            {"sim_seconds", std::to_string(kLiveSeconds)},
            {"scanner_nets", std::to_string(kScannerNets)},
            {"loop", "closed"}};
  }
  [[nodiscard]] double serial_inputs_per_s() const override { return 0.0; }
  [[nodiscard]] bool host_scaled() const override { return true; }

 private:
  void compare(const LiveOutcome& got, RepResult& out) const {
    const auto want_fields = stat_fields(oracle_.stats);
    const auto got_fields = stat_fields(got.stats);
    for (std::size_t i = 0; i < want_fields.size(); ++i) {
      fail(out, gap(got_fields[i].second, want_fields[i].second),
           std::string("Testbed::Stats.") + want_fields[i].first + " differing from the replay");
    }
    fail(out, mismatches(got.notifications, oracle_.notifications),
         "notifications differing from the replay");
    const std::uint64_t total = in_.flows.size();
    fail(out, gap(total, got.stats.dropped_flows + got.delivered),
         "flows neither dropped nor delivered");
    const double drop = ratio(static_cast<double>(got.stats.dropped_flows),
                              static_cast<double>(total));
    if (drop < 0.4 || drop > 0.6) {
      out.shape_failures.push_back("live_flows BHR drop ratio " + std::to_string(drop) +
                                   " outside 0.4-0.6");
    }
  }

  void run_testbed(RepResult& out) {
    const double rss0 = rss_mb("VmRSS:");
    const std::int64_t setup_start = now_ns();
    testbed::Testbed bed(testbed::TestbedConfig{}, training());
    bed.deploy(0);
    populate(bed.router(), in_);
    bed.schedule_maintenance(60, kLiveSeconds);
    out.setup_s = seconds(now_ns() - setup_start);

    std::uint64_t delivered = 0;
    out.latency_us.reserve(static_cast<std::size_t>(kLiveSeconds));
    const std::uint64_t faults0 = minor_faults();
    const std::int64_t wall0 = now_ns();
    for (util::SimTime s = 0; s < kLiveSeconds; ++s) {
      bed.engine().schedule_at(s, [this, &bed, &delivered, &out, s](sim::Engine&) {
        // Each flow's verdict (dropped, or delivered through the monitors
        // and detectors) is released when its second's batch returns.
        const auto flows = second_of(in_, s);
        const std::int64_t start = now_ns();
        delivered += bed.inject_flows(flows);
        out.latency_us.emplace_back(static_cast<double>(now_ns() - start) * 1e-3,
                                    flows.size());
      });
    }
    bed.engine().run();
    const std::int64_t wall1 = now_ns();
    out.faults = minor_faults() - faults0;
    out.timed_s = seconds(wall1 - wall0);
    out.inputs = in_.flows.size();
    out.rss_mb = rss_mb("VmHWM:") - rss0;

    LiveOutcome got;
    got.stats = bed.stats();
    got.notifications = render_notes(bed.pipeline().notifications());
    got.delivered = delivered;
    compare(got, out);
  }

  void run_traced(RepResult& out) {
    recorder().set_enabled(true);
    const std::int64_t setup_start = now_ns();
    LiveReplay replay(in_, true);
    out.setup_s = seconds(now_ns() - setup_start);
    recorder().prefault(4 * in_.flows.size());
    const std::int64_t wall0 = now_ns();
    replay.run();
    const std::int64_t wall1 = now_ns();
    recorder().set_enabled(false);
    out.timed_s = seconds(wall1 - wall0);
    out.inputs = in_.flows.size();
    const LiveOutcome got = replay.outcome();
    compare(got, out);

    const auto t = recorder().summarize();
    auto& m = out.layer;
    const double flows = static_cast<double>(in_.flows.size());
    const auto per_span = [&t](const char* name, bool self) {
      const auto& x = t.at(name);
      return ratio(static_cast<double>(self ? x.self_ns : x.total_ns),
                   static_cast<double>(x.spans));
    };
    const auto& fwd = t.at("fg.forward_observe");
    const auto& rules = t.at("detect.rules_observe");
    m["bhr.filter_batch_ns_per_flow"] =
        ratio(static_cast<double>(t.at("bhr.filter_batch").total_ns), flows);
    m["bhr.drop_ratio"] = ratio(static_cast<double>(got.stats.dropped_flows), flows);
    m["bhr.scan_record_ns_per_flow"] = per_span("bhr.scan_record", false);
    m["bhr.expire_ns_per_call"] = per_span("bhr.expire", false);
    m["bhr.populate_s"] = replay.populate_s();
    m["testbed.ssh_audit_ns_per_flow"] = per_span("testbed.ssh_audit", false);
    m["monitors.zeek_self_ns_per_flow"] = per_span("monitors.zeek", true);
    m["monitors.notices_per_kflow"] =
        1000.0 * ratio(static_cast<double>(got.stats.alerts_received),
                       static_cast<double>(replay.zeek_flows()));
    m["monitors.zeek_tracked_sources"] = static_cast<double>(replay.zeek_sources());
    m["testbed.correlator_ns_per_alert"] = per_span("testbed.correlator", true);
    m["testbed.correlator_forward_ratio"] =
        ratio(static_cast<double>(got.stats.alerts_forwarded),
              static_cast<double>(got.stats.alerts_received));
    m["testbed.pipeline_ns_per_alert"] = per_span("testbed.pipeline", true);
    m["testbed.tracked_entities"] = static_cast<double>(got.stats.tracked_entities);
    m["testbed.evicted_entities"] = static_cast<double>(got.stats.evicted_entities);
    m["fg.forward_observe_ns"] =
        ratio(static_cast<double>(fwd.total_ns), static_cast<double>(fwd.spans));
    m["detect.rules_observe_ns"] =
        ratio(static_cast<double>(rules.total_ns), static_cast<double>(rules.spans));
    m["detect.factory_ns"] = per_span("detect.factory", false);
    m["detect.fire_ratio"] = ratio(static_cast<double>(t.at("detect.fires").counter),
                                   static_cast<double>(fwd.spans + rules.spans));
    m["fg.learn_s"] = seconds(t.at("fg.learn").total_ns);
    m["sim.self_ns_per_event"] =
        ratio(static_cast<double>(t.at("sim.run").self_ns),
              static_cast<double>(got.stats.events_executed));
    m["sim.events_executed"] = static_cast<double>(got.stats.events_executed);
    m["bench.span_coverage"] = recorder().coverage(recorder().local().thread, wall0, wall1);
  }

  LiveInputs in_;
  LiveOutcome oracle_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "paced_attack") return std::make_unique<PacedAttack>();
  if (name == "live_flows") return std::make_unique<LiveFlows>();
  return nullptr;
}

}  // namespace alertbench
