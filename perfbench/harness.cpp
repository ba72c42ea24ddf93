// spcd_perfbench — the measuring half of the repository benchmark.
// perfbench/run.py builds it, runs it once per benchmark run, and turns its
// raw output into the reported metrics; see perfbench/README.md.
//
//   spcd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR --out FILE
//   spcd_perfbench --batch-digest --seed N
//
// Workloads: sim_sp_spcd, svc_inproc_2t. Every layer is measured
// from outside, by timing calls into its public functions; the program is
// never modified. With --trace 1 the run alternates untraced and traced
// units and records a span around each layer call (name, start, end,
// parent, request id), kept in memory and written with the rest of the
// raw output when the run ends.
//
// Raw output (one JSON object): set-up samples, per-phase work, seconds,
// unit latencies and (sim_sp_spcd) segment times, exact counters, failure
// accounting, spans, and the paths of the artifacts run.py checks (journal,
// service metrics).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mapping_strategy.hpp"
#include "core/policy.hpp"
#include "core/runner.hpp"
#include "core/spcd_kernel.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "svc/driver.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"
#include "workloads/npb.hpp"

namespace {

using namespace spcd;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

/// Seconds since the harness started (the time axis of every span).
double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

// ---------------------------------------------------------------------------
// Spans: one per layer call in a traced unit. Ids are 1-based indices into
// the log; parent 0 is the root.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
};

class SpanLog {
 public:
  std::uint32_t begin(std::string name, std::uint32_t parent,
                      std::uint64_t request) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), t, t, parent, request});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t id) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = t;
  }
  std::uint32_t add(std::string name, double start, double end,
                    std::uint32_t parent, std::uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), start, end, parent, request});
    return static_cast<std::uint32_t>(spans_.size());
  }
  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// A span around one scope; a null log makes it free (untraced units):
/// the name is a literal, copied only when it is logged.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint32_t parent,
             std::uint64_t request)
      : log_(log), id_(log ? log->begin(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Raw output.

struct Phase {
  double work = 0.0;     ///< simulated instructions or acked events
  double seconds = 0.0;  ///< host seconds the work took
  std::vector<double> lat_ms;  ///< one per cell or batch
  // One entry per timed unit: its work, its seconds, and the end of its
  // latencies in lat_ms.
  std::vector<double> unit_work;
  std::vector<double> unit_s;
  std::vector<double> unit_lat_end;
  // sim_sp_spcd only: per unit, the seconds of each of its segments (see
  // SegmentClock); every unit of a run does the same segments of work.
  std::vector<std::vector<double>> unit_segments;

  void add_unit(double unit_work_done, double unit_seconds) {
    work += unit_work_done;
    seconds += unit_seconds;
    unit_work.push_back(unit_work_done);
    unit_s.push_back(unit_seconds);
    unit_lat_end.push_back(static_cast<double>(lat_ms.size()));
  }
};

struct Output {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<double> setup_s;
  long peak_rss_kb = 0;
  Phase untraced;
  Phase traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<std::string> cell_stats;         ///< sim_sp_spcd, untraced
  std::vector<std::string> traced_cell_stats;  ///< sim_sp_spcd, traced
  std::map<std::string, double> values;       ///< counters + measured layers
  std::map<std::string, std::string> artifacts;
  std::vector<Span> spans;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(v[i]) + "\"";
  }
  return out + "]";
}

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += num(v[i]);
  }
  return out + "]";
}

std::string phase_json(const Phase& p) {
  std::string segments;
  for (std::size_t i = 0; i < p.unit_segments.size(); ++i) {
    if (i) segments += ",";
    segments += num_list(p.unit_segments[i]);
  }
  return "{\"work\":" + num(p.work) + ",\"seconds\":" + num(p.seconds) +
         ",\"lat_ms\":" + num_list(p.lat_ms) +
         ",\"unit_work\":" + num_list(p.unit_work) +
         ",\"unit_s\":" + num_list(p.unit_s) +
         ",\"unit_lat_end\":" + num_list(p.unit_lat_end) +
         ",\"unit_segments\":[" + segments + "]}";
}

std::string to_json(const Output& o) {
  std::string out = "{\"workload\":\"" + o.workload + "\"";
  out += ",\"seed\":" + std::to_string(o.seed);
  out += ",\"setup_s\":" + num_list(o.setup_s);
  out += ",\"peak_rss_kb\":" + std::to_string(o.peak_rss_kb);
  out += ",\"untraced\":" + phase_json(o.untraced);
  out += ",\"traced\":" + phase_json(o.traced);
  out += ",\"attempted\":" + std::to_string(o.attempted);
  out += ",\"failed\":" + std::to_string(o.failed);
  out += ",\"problems\":" + str_list(o.problems);
  out += ",\"cell_stats\":" + str_list(o.cell_stats);
  out += ",\"traced_cell_stats\":" + str_list(o.traced_cell_stats);
  out += ",\"values\":{";
  bool first = true;
  for (const auto& [k, v] : o.values) {
    out += (first ? "\"" : ",\"") + k + "\":" + num(v);
    first = false;
  }
  out += "},\"artifacts\":{";
  first = true;
  for (const auto& [k, v] : o.artifacts) {
    out += (first ? "\"" : ",\"") + k + "\":\"" + json_escape(v) + "\"";
    first = false;
  }
  out += "},\"spans\":[";
  for (std::size_t i = 0; i < o.spans.size(); ++i) {
    const Span& s = o.spans[i];
    if (i) out += ",";
    out += "[\"" + s.name + "\"," + num(s.start) + "," + num(s.end) + "," +
           std::to_string(s.parent) + "," + std::to_string(s.request) + "]";
  }
  return out + "]}\n";
}

long self_peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Simulator helpers.

/// Passes a workload through unchanged, remembering the seeds the engine
/// asked for and when it asked for the last thread program (the end of the
/// cell's construction). Thread programs are returned undecorated, so the
/// per-op path is untouched.
class RecordingWorkload : public sim::Workload {
 public:
  explicit RecordingWorkload(std::unique_ptr<sim::Workload> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::uint32_t num_threads() const override {
    return inner_->num_threads();
  }
  std::unique_ptr<sim::ThreadProgram> make_thread(
      std::uint32_t tid, std::uint64_t seed) override {
    auto program = inner_->make_thread(tid, seed);
    thread_seeds.emplace_back(tid, seed);
    last_make_thread_s = now_s();
    return program;
  }

  std::vector<std::pair<std::uint32_t, std::uint64_t>> thread_seeds;
  double last_make_thread_s = 0.0;

 private:
  std::unique_ptr<sim::Workload> inner_;
};

/// What the traced path learned about the last cell built on this thread.
struct CellCapture {
  std::uint64_t workload_seed = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> thread_seeds;
  double built_s = 0.0;
};
thread_local CellCapture t_capture;

/// Factory whose workloads report their construction into t_capture.
core::WorkloadFactory recording_factory(core::WorkloadFactory inner) {
  return [inner = std::move(inner)](std::uint64_t seed)
             -> std::unique_ptr<sim::Workload> {
    struct Reporting : RecordingWorkload {
      using RecordingWorkload::RecordingWorkload;
      ~Reporting() override {
        t_capture.thread_seeds = thread_seeds;
        t_capture.built_s = last_make_thread_s;
      }
    };
    t_capture.workload_seed = seed;
    return std::make_unique<Reporting>(inner(seed));
  };
}

/// Regenerate a cell's op streams on their own — ThreadProgram::next is a
/// pure per-thread generator — and time it: the generator's share of the
/// cell, without a clock read per op inside the engine. Returns ops.
std::uint64_t regenerate(const core::WorkloadFactory& factory,
                         const CellCapture& cell, SpanLog* log,
                         std::uint64_t request) {
  auto workload = factory(cell.workload_seed);
  std::vector<std::unique_ptr<sim::ThreadProgram>> programs;
  for (const auto& [tid, seed] : cell.thread_seeds) {
    programs.push_back(workload->make_thread(tid, seed));
  }
  std::uint64_t ops = 0;
  ScopedSpan span(log, "workloads.regen", 0, request);
  for (auto& p : programs) {
    while (p->next().kind != sim::OpKind::kFinish) ++ops;
    ++ops;  // the finish op is a next() call too
  }
  return ops;
}

std::string stats_text(double exec_s, std::uint64_t insts, std::uint64_t c2c,
                       std::uint64_t inval, std::uint64_t dram,
                       std::uint64_t minor, std::uint64_t injected,
                       std::uint64_t migrations) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "exec_s=%.9e insts=%" PRIu64 " c2c=%" PRIu64
                " inval=%" PRIu64 " dram=%" PRIu64 " minor=%" PRIu64
                " injected=%" PRIu64 " migrations=%" PRIu64,
                exec_s, insts, c2c, inval, dram, minor, injected, migrations);
  return buf;
}

std::string stats_text(const core::RunMetrics& m) {
  return stats_text(m.exec_seconds, m.instructions, m.c2c_transactions,
                    m.invalidations, m.dram_accesses, m.minor_faults,
                    m.injected_faults, m.migration_events);
}

/// Brackets the SPCD kernel's fault observer: `open` is registered before
/// the kernel, `close` after it, so each fault yields one span covering
/// exactly the kernel's on_fault. Both cost zero simulated cycles.
struct FaultBracket {
  struct Open : mem::FaultObserver {
    double* start;
    explicit Open(double* s) : start(s) {}
    util::Cycles on_fault(const mem::FaultEvent&) override {
      *start = now_s();
      return 0;
    }
  };
  struct Close : mem::FaultObserver {
    FaultBracket* owner;
    explicit Close(FaultBracket* o) : owner(o) {}
    util::Cycles on_fault(const mem::FaultEvent&) override {
      owner->log->add("core.fault_hook", owner->start, now_s(),
                      owner->parent, owner->request);
      return 0;
    }
  };
  SpanLog* log;
  std::uint64_t request;
  std::uint32_t parent = 0;
  double start = 0.0;
  Open open{&start};
  Close close{this};
};

// Salt of the SPCD kernel's random stream in core::Runner::run_once.
constexpr std::uint64_t kSpcdKernelSalt = 0x5bcd;

constexpr double kSpScale = 1.0;
// Set-ups per run; run.py reports their median.
constexpr int kSetups = 21;

/// Time `setup` (a callable returning its own duration in seconds)
/// kSetups times, each in a fresh child of this process, forked before any
/// set-up ran. So every sample starts from the state a newly launched
/// program has, the allocator's included, instead of reusing the memory
/// the previous set-up freed.
template <typename Setup>
void cold_setups(Setup&& setup, Output& out) {
  for (int i = 0; i < kSetups; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      double seconds = -1.0;
      try {
        seconds = setup();
      } catch (...) {
      }
      const bool sent =
          ::write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
      ::_exit(sent && seconds >= 0.0 ? 0 : 1);
    }
    ::close(fds[1]);
    double seconds = -1.0;
    const ssize_t got = ::read(fds[0], &seconds, sizeof seconds);
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != sizeof seconds || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("a set-up failed");
    }
    out.setup_s.push_back(seconds);
  }
}

core::RunnerConfig sim_config(std::uint64_t base_seed,
                              std::uint32_t repetitions) {
  core::RunnerConfig config;
  config.repetitions = repetitions;
  config.base_seed = base_seed;
  config.jobs = 1;
  config.trace.enabled = false;
  return config;
}

/// Build, and drop, the state one cell starts from: machine, address
/// space, workload, engine (which makes every thread program) and, for the
/// spcd policy, the installed SPCD kernel. Returns when it was built.
double build_cell(const core::RunnerConfig& config,
                  const core::WorkloadFactory& factory, std::uint64_t rep_seed,
                  bool spcd) {
  sim::Machine machine(config.machine);
  mem::AddressSpace as = machine.make_address_space();
  auto workload = factory(rep_seed);
  const std::uint32_t n = workload->num_threads();
  sim::Engine engine(machine, as, *workload,
                     core::os_spread_placement(machine.topology(), n),
                     config.engine);
  if (!spcd) return now_s();
  core::SpcdKernel kernel(config.spcd, n,
                          util::derive_seed(rep_seed, kSpcdKernelSalt));
  kernel.install(engine);
  return now_s();
}

// ---------------------------------------------------------------------------
// sim_sp_spcd: one NPB-SP cell under SPCD, scale 1, serial.

// Thread-program ops per segment of a cell: an NPB-SP cell at scale 1 is
// about 12M ops, so some 190 segments of 20-30 ms each.
constexpr std::uint64_t kSegmentOps = std::uint64_t{1} << 16;

/// Cuts a cell into segments of kSegmentOps thread-program ops (the last
/// one shorter) and times each. The engine runs one shard and asks for a
/// cell's ops in the same order every time, so segment i of every cell of
/// a run is the same work, and run.py can take each segment at its fastest
/// across the run's cells.
class SegmentClock {
 public:
  void start() {
    ops_ = 0;
    stamps_.assign(1, now_s());
  }
  void tick() {
    if ((++ops_ & (kSegmentOps - 1)) == 0) stamps_.push_back(now_s());
  }
  /// Ends the cell; returns the seconds of each segment.
  std::vector<double> stop() {
    stamps_.push_back(now_s());
    std::vector<double> seconds;
    for (std::size_t i = 1; i < stamps_.size(); ++i) {
      seconds.push_back(stamps_[i] - stamps_[i - 1]);
    }
    return seconds;
  }

 private:
  std::uint64_t ops_ = 0;
  std::vector<double> stamps_;
};

/// Passes a workload through, its thread programs ticking `clock` once per
/// op: one more virtual call and an increment per op.
class SegmentedWorkload : public sim::Workload {
 public:
  SegmentedWorkload(std::unique_ptr<sim::Workload> inner, SegmentClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}
  std::string name() const override { return inner_->name(); }
  std::uint32_t num_threads() const override {
    return inner_->num_threads();
  }
  std::unique_ptr<sim::ThreadProgram> make_thread(
      std::uint32_t tid, std::uint64_t seed) override {
    struct Ticking : sim::ThreadProgram {
      std::unique_ptr<sim::ThreadProgram> inner;
      SegmentClock* clock;
      Ticking(std::unique_ptr<sim::ThreadProgram> p, SegmentClock* c)
          : inner(std::move(p)), clock(c) {}
      sim::Op next() override {
        clock->tick();
        return inner->next();
      }
    };
    return std::make_unique<Ticking>(inner_->make_thread(tid, seed), clock_);
  }

 private:
  std::unique_ptr<sim::Workload> inner_;
  SegmentClock* clock_;
};

core::WorkloadFactory segmented_factory(core::WorkloadFactory inner,
                                        SegmentClock* clock) {
  return [inner = std::move(inner), clock](std::uint64_t seed)
             -> std::unique_ptr<sim::Workload> {
    return std::make_unique<SegmentedWorkload>(inner(seed), clock);
  };
}

struct TracedCell {
  std::string stats;
  double insts = 0.0;
  double cell_s = 0.0;
  std::vector<double> segments;
};

/// The cell Runner::run_once builds for the spcd policy, assembled here so
/// the fault hook can be bracketed and the build timed. run.py checks that
/// its statistics equal the untraced run_once cell's.
TracedCell traced_sp_cell(core::Runner& runner,
                          const core::RunnerConfig& config,
                          const core::WorkloadFactory& factory,
                          SegmentClock& clock, SpanLog& log,
                          std::uint64_t request, Output& out) {
  const std::uint64_t rep_seed = runner.cell_seed("sp", 0);
  const core::WorkloadFactory recording =
      recording_factory(segmented_factory(factory, &clock));
  TracedCell result;
  {
    const double t0 = now_s();
    clock.start();
    const std::uint32_t cell = log.begin("sim.cell", 0, request);
    const std::uint32_t build = log.begin("sim.build", cell, request);
    sim::Machine machine(config.machine);
    mem::AddressSpace as = machine.make_address_space();
    auto workload = recording(rep_seed);
    const std::uint32_t n = workload->num_threads();
    sim::Engine engine(machine, as, *workload,
                       core::os_spread_placement(machine.topology(), n),
                       config.engine);
    core::SpcdKernel kernel(config.spcd, n,
                            util::derive_seed(rep_seed, kSpcdKernelSalt));
    FaultBracket bracket{&log, request};
    as.add_fault_observer(&bracket.open);
    kernel.install(engine);
    as.add_fault_observer(&bracket.close);
    log.end(build);
    {
      ScopedSpan run(&log, "sim.run", cell, request);
      bracket.parent = run.id();
      engine.run();
    }
    log.end(cell);
    result.segments = clock.stop();
    result.cell_s = now_s() - t0;
    if (engine.timed_out()) out.problems.push_back("traced cell timed out");
    const sim::PerfCounters& c = engine.counters();
    result.insts = static_cast<double>(c.instructions);
    result.stats = stats_text(engine.exec_seconds(), c.instructions,
                              c.c2c_total(), c.invalidations, c.dram_total(),
                              c.minor_faults, c.injected_faults,
                              kernel.migration_events());
    out.values["sim.accesses"] = static_cast<double>(c.accesses());
    out.values["sim.l2_misses"] = static_cast<double>(c.l2_misses);
    out.values["sim.l3_misses"] = static_cast<double>(c.l3_misses);
    out.values["sim.c2c"] = static_cast<double>(c.c2c_total());
    out.values["sim.invalidations"] = static_cast<double>(c.invalidations);
    out.values["sim.back_invalidations"] =
        static_cast<double>(c.back_invalidations);
    out.values["sim.dram"] = static_cast<double>(c.dram_total());
    out.values["mem.minor_faults"] = static_cast<double>(c.minor_faults);
    out.values["mem.injected_faults"] = static_cast<double>(c.injected_faults);
    out.values["core.faults_seen"] =
        static_cast<double>(kernel.detector().faults_seen());
    out.values["core.comm_events"] =
        static_cast<double>(kernel.detector().communication_events());
    out.values["core.migrations"] =
        static_cast<double>(kernel.migration_events());
    // The configured mapping strategy on the matrix this run detected,
    // called repeatedly: one call takes well under a millisecond.
    const auto strategy = core::make_mapping_strategy(config.spcd.mapping);
    for (int i = 0; i < 50; ++i) {
      ScopedSpan map(&log, "core.map", 0, request);
      strategy->map(kernel.matrix(), machine.topology(), {});
    }
  }
  out.values["workloads.ops"] =
      static_cast<double>(regenerate(factory, t_capture, &log, request));
  return result;
}

/// Run units until one more would overrun `seconds` (at least one; a
/// traced run alternates untraced and traced units, at least one of each).
template <typename Unit>
void run_units(double seconds, bool trace, Unit&& unit) {
  const double t0 = now_s();
  double longest = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    const double start = now_s();
    unit(i, trace && i % 2 == 1);
    longest = std::max(longest, now_s() - start);
    if ((!trace || i >= 1) && now_s() - t0 + longest > seconds) break;
  }
}

void run_sim_sp_spcd(std::uint64_t seed, double seconds, bool trace,
                     Output& out) {
  core::RunnerConfig config = sim_config(seed, 1);
  // One engine shard whatever SPCD_ENGINE_SHARDS says: the segment clock
  // counts the ops of one thread.
  config.engine.shards = 1;
  core::Runner runner(config);
  const core::WorkloadFactory factory =
      workloads::nas_factory("sp", kSpScale);
  SegmentClock clock;
  const core::WorkloadFactory segmented = segmented_factory(factory, &clock);
  const std::uint64_t rep_seed = runner.cell_seed("sp", 0);

  // Set-up: build what the first timed unit starts from.
  cold_setups(
      [&] {
        const double t0 = now_s();
        return build_cell(config, factory, rep_seed, true) - t0;
      },
      out);

  SpanLog log;
  run_units(seconds, trace, [&](std::uint64_t i, bool traced) {
    ++out.attempted;
    if (traced) {
      const TracedCell cell =
          traced_sp_cell(runner, config, factory, clock, log, i, out);
      out.traced_cell_stats.push_back(cell.stats);
      out.traced.add_unit(cell.insts, cell.cell_s);
      out.traced.unit_segments.push_back(cell.segments);
      out.traced.lat_ms.push_back(cell.cell_s * 1e3);
      return;
    }
    const double t0 = now_s();
    clock.start();
    const core::RunMetrics m =
        runner.run_once("sp", segmented, core::MappingPolicy::kSpcd, 0);
    std::vector<double> segments = clock.stop();
    const double dt = now_s() - t0;
    out.cell_stats.push_back(stats_text(m));
    out.untraced.add_unit(static_cast<double>(m.instructions), dt);
    out.untraced.unit_segments.push_back(std::move(segments));
    out.untraced.lat_ms.push_back(dt * 1e3);
  });
  if (trace) {
    // The oracle policy's full-trace profiling run of the same cell, once:
    // the runner caches its placement by workload name.
    ScopedSpan span(&log, "core.oracle_profile", 0, 0);
    runner.oracle_placement("sp", factory);
  }
  out.spans = log.take();
}

// ---------------------------------------------------------------------------
// svc_inproc_2t: the conversation an spcdd session serves, in one process:
// two closed-loop tenants, each on its own svc in-process transport pair,
// one thread playing both client and server, no journal.

constexpr std::uint32_t kTenants = 2;
constexpr std::uint32_t kThreadsPerTenant = 4;
constexpr std::uint32_t kEventsPerBatch = 256;
constexpr std::uint32_t kBatchPool = 512;
// Batches per tenant in one timed unit; a traced run alternates units.
constexpr std::uint64_t kUnitBatches = 256;
// Batch latencies one phase can record without reallocating: 4.2M, where
// a 55 s run acked about 0.6M batches on a 4-vCPU shared VM.
constexpr std::size_t kLatencyReserve = std::size_t{1} << 22;
// In traced units every kSpanEvery-th batch gets spans. 7 is coprime to the
// service's arbitration period (4096 events = 16 batches), so the sampled
// batches carry their share of arbitrations.
constexpr std::uint64_t kSpanEvery = 7;
// The journaled prefix behind the replay gate: kGateBatches batches per
// tenant into a journal that rotates every kGateJournalRecords records and
// keeps kJournalKeep generations, so replay starts from a snapshot.
constexpr std::uint32_t kGateBatches = 48;
constexpr std::uint64_t kGateJournalRecords = 32;
constexpr std::uint32_t kJournalKeep = 2;

svc::DriverConfig script_config(std::uint64_t seed) {
  svc::DriverConfig config;
  config.tenants = kTenants;
  config.threads_per_tenant = kThreadsPerTenant;
  config.events_per_batch = kEventsPerBatch;
  config.seed = seed;
  return config;
}

/// The scripted batches each tenant cycles through (generated before the
/// timed phase, so the run measures the service, not the generator).
std::vector<std::vector<std::vector<svc::FaultRecord>>> batch_pool(
    std::uint64_t seed) {
  const svc::DriverConfig config = script_config(seed);
  std::vector<std::vector<std::vector<svc::FaultRecord>>> pool(kTenants);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    for (std::uint32_t b = 0; b < kBatchPool; ++b) {
      pool[t].push_back(svc::scripted_batch(config, t, b));
    }
  }
  return pool;
}

/// One service and, per tenant, the client and server ends of an
/// in-process transport pair. Each request is sent, served the way an
/// spcdd session serves it, and answered before the next one, so no
/// thread ever waits on another.
class Conversation {
 public:
  explicit Conversation(const svc::ServiceConfig& config) : service(config) {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      auto [client, server] = svc::make_inproc_pair();
      clients_.push_back(std::move(client));
      servers_.push_back(std::move(server));
    }
  }

  /// Every tenant's hello, registered and answered with a welcome.
  void hello() {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      const auto hello = deliver(
          *clients_[t], *servers_[t],
          svc::encode_hello("tenant-" + std::to_string(t), kThreadsPerTenant),
          nullptr, 0, 0);
      if (!hello || hello->type != svc::MessageType::kHello) {
        throw std::runtime_error("hello was not delivered");
      }
      const svc::RegisterResult r =
          service.register_tenant(hello->name, hello->num_threads);
      if (!r.ok) throw std::runtime_error("register: " + r.error);
      const auto welcome =
          deliver(*servers_[t], *clients_[t],
                  svc::encode_welcome(r.tenant_id, r.base_tid), nullptr, 0, 0);
      if (!welcome || welcome->type != svc::MessageType::kWelcome) {
        throw std::runtime_error("welcome was not delivered");
      }
      ids_.push_back(welcome->tenant_id);
    }
  }

  /// Tenant t's fault batch to the service and its ack back, with a span
  /// around each layer call when `log` is set. False when it was not acked.
  bool exchange(std::uint32_t t, std::uint64_t client_seq,
                const std::vector<svc::FaultRecord>& events, SpanLog* log,
                std::uint64_t request, const char* ingest_span) {
    ScopedSpan batch(log, "svc.batch", 0, request);
    const std::uint32_t parent = batch.id();
    std::string frame;
    {
      ScopedSpan s(log, "svc.protocol.encode", parent, request);
      frame = svc::encode_fault_batch(client_seq, events);
    }
    const auto msg =
        deliver(*clients_[t], *servers_[t], frame, log, parent, request);
    if (!msg || msg->type != svc::MessageType::kFaultBatch) return false;
    std::string reply;
    {
      ScopedSpan s(log, "svc.service.dedup", parent, request);
      if (service.dedup_lookup(ids_[t], msg->client_seq, &reply)) {
        return false;  // every client_seq is sent once
      }
    }
    svc::IngestResult r;
    {
      ScopedSpan s(log, ingest_span, parent, request);
      r = service.ingest(ids_[t], msg->events);
    }
    if (!r.ok) return false;
    {
      ScopedSpan s(log, "svc.protocol.encode", parent, request);
      reply = svc::encode_batch_ack(msg->client_seq, r.seq, r.comm_events);
    }
    {
      ScopedSpan s(log, "svc.service.dedup", parent, request);
      service.dedup_store(ids_[t], msg->client_seq, reply);
    }
    const auto ack =
        deliver(*servers_[t], *clients_[t], reply, log, parent, request);
    return ack && ack->type == svc::MessageType::kBatchAck &&
           ack->client_seq == client_seq;
  }

  svc::SpcdService service;

 private:
  /// Send a frame on one end, receive it on the other and parse it.
  static std::optional<svc::Message> deliver(svc::Transport& from,
                                             svc::Transport& to,
                                             const std::string& frame,
                                             SpanLog* log,
                                             std::uint32_t parent,
                                             std::uint64_t request) {
    {
      ScopedSpan s(log, "svc.transport.send", parent, request);
      if (!from.send(frame)) return std::nullopt;
    }
    std::string payload;
    {
      ScopedSpan s(log, "svc.transport.recv", parent, request);
      if (to.recv(&payload, 0) != svc::Transport::RecvStatus::kFrame) {
        return std::nullopt;
      }
    }
    ScopedSpan s(log, "svc.protocol.decode", parent, request);
    return svc::parse_message(payload);
  }

  std::vector<std::unique_ptr<svc::Transport>> clients_;
  std::vector<std::unique_ptr<svc::Transport>> servers_;
  std::vector<std::uint32_t> ids_;
};

void remove_journal(const fs::path& journal) {
  std::error_code ec;
  fs::remove(journal, ec);
  for (int g = 0; g < 64; ++g) {
    fs::remove(journal.string() + ".g" + std::to_string(g), ec);
  }
}

/// The replay gate's input: the first kGateBatches batches of each tenant
/// into a rotating journal, left in `journal` for `spcdd --replay`. A
/// traced run also times their ingest calls (the journaled ingest).
void write_gate_journal(
    const fs::path& journal,
    const std::vector<std::vector<std::vector<svc::FaultRecord>>>& pool,
    bool trace, Output& out) {
  SpanLog gate_log;
  SpanLog* log = trace ? &gate_log : nullptr;
  remove_journal(journal);
  svc::ServiceConfig config;
  config.journal_path = journal.string();
  config.journal_max_records = kGateJournalRecords;
  config.journal_keep_generations = kJournalKeep;
  Conversation conv(config);
  conv.hello();
  for (std::uint32_t b = 0; b < kGateBatches; ++b) {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      if (!conv.exchange(t, b + 1, pool[t][b], log, 0,
                         "svc.service.ingest_journal")) {
        out.problems.push_back("journaled batch not acked");
        return;
      }
    }
  }
  out.values["svc.journal.records"] =
      static_cast<double>(conv.service.journal_records());
  out.values["svc.journal.generations"] = conv.service.generation();
  out.artifacts["journal"] = journal.string();
  if (!trace) return;
  double ingest_s = 0.0;
  for (const Span& span : gate_log.take()) {
    if (span.name == "svc.service.ingest_journal") {
      ingest_s += span.end - span.start;
    }
  }
  out.values["svc.service.ingest_journal_ns_per_event"] =
      ingest_s * 1e9 / (double{kGateBatches} * kTenants * kEventsPerBatch);
}

/// The bare floor under the journaled ingest: util::Journal append (which
/// fsyncs) of one batch-sized record at a time.
void measure_fsync_floor(const fs::path& workdir, Output& out) {
  const fs::path bare = workdir / "fsync.journal";
  const std::string record(kEventsPerBatch * 16, 'x');
  std::vector<double> ms;
  {
    util::Journal j = util::Journal::create(bare.string(), "perfbench");
    for (int i = 0; i < 100; ++i) {
      const double a = now_s();
      if (!j.append(record)) {
        out.problems.push_back("bare journal append failed");
        break;
      }
      ms.push_back((now_s() - a) * 1e3);
    }
  }
  std::error_code ec;
  fs::remove(bare, ec);
  out.values["util.journal.fsync_ms"] = median(ms);
}

void run_svc_inproc(std::uint64_t seed, double seconds, bool trace,
                    const fs::path& workdir, Output& out) {
  const auto pool = batch_pool(seed);
  const svc::ServiceConfig config{};  // no journal, as spcdd without one

  // Set-up: the service built, both transport pairs made, both hellos
  // acked.
  cold_setups(
      [&] {
        const double t0 = now_s();
        Conversation conv(config);
        conv.hello();
        return now_s() - t0;
      },
      out);
  auto conv = std::make_unique<Conversation>(config);
  conv->hello();

  // Room for every batch latency a run records, reserved (not touched)
  // up front: a vector that doubles while the run goes on copies itself
  // at a size that depends on the host's speed, and moved the peak RSS by
  // several MB between runs.
  out.untraced.lat_ms.reserve(kLatencyReserve);
  out.traced.lat_ms.reserve(kLatencyReserve);

  // Timed phase: the tenants take turns, each sending its next batch once
  // the previous one is acked.
  SpanLog log;
  std::uint64_t next_batch = 0;
  std::uint64_t events_acked = 0;
  std::vector<std::uint64_t> acked(kTenants, 0);
  run_units(seconds, trace, [&](std::uint64_t, bool traced) {
    Phase& phase = traced ? out.traced : out.untraced;
    double unit_work = 0.0;
    const double unit_start = now_s();
    for (std::uint64_t i = 0; i < kUnitBatches; ++i, ++next_batch) {
      for (std::uint32_t t = 0; t < kTenants; ++t) {
        const auto& batch = pool[t][next_batch % kBatchPool];
        const std::uint64_t request = (std::uint64_t{t} << 32) | next_batch;
        SpanLog* sampled =
            traced && next_batch % kSpanEvery == 0 ? &log : nullptr;
        const double start = now_s();
        const bool ok = conv->exchange(t, next_batch + 1, batch, sampled,
                                       request, "svc.service.ingest");
        const double done = now_s();
        ++out.attempted;
        if (!ok) {
          ++out.failed;
          continue;
        }
        ++acked[t];
        events_acked += batch.size();
        unit_work += static_cast<double>(batch.size());
        phase.lat_ms.push_back((done - start) * 1e3);
      }
    }
    phase.add_unit(unit_work, now_s() - unit_start);
  });
  if (out.failed) out.problems.push_back("batches not acked");

  // Checked by run.py against the client's counts.
  const fs::path metrics = workdir / "service_metrics.json";
  {
    std::ofstream f(metrics, std::ios::binary | std::ios::trunc);
    f << conv->service.metrics_json();
  }
  out.artifacts["service_metrics"] = metrics.string();
  out.values["client.events_acked"] = static_cast<double>(events_acked);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    out.values["client.batches_acked." + std::to_string(t)] =
        static_cast<double>(acked[t]);
  }
  out.values["svc.events_per_batch"] = static_cast<double>(kEventsPerBatch);

  if (trace) {
    // The arbiter's decision on the state the run built: the service's
    // MappingStrategy::map call plus the combined-matrix assembly.
    std::vector<double> ms;
    for (int i = 0; i < 21; ++i) {
      const double t0 = now_s();
      conv->service.arbitrate_now();
      ms.push_back((now_s() - t0) * 1e3);
    }
    out.values["core.map_ms"] = median(ms);
    measure_fsync_floor(workdir, out);
  }
  conv.reset();
  write_gate_journal(workdir / "service.journal", pool, trace, out);
  out.spans = log.take();
}

/// FNV-1a over the first batches of every tenant's script: the seed test's
/// view of the generated service inputs.
std::uint64_t batch_digest(std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const svc::DriverConfig config = script_config(seed);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    for (std::uint32_t b = 0; b < 16; ++b) {
      for (const svc::FaultRecord& r : svc::scripted_batch(config, t, b)) {
        mix(r.vaddr);
        mix(r.tid);
        mix(r.time);
      }
    }
  }
  return h;
}

int usage() {
  std::fprintf(stderr,
               "usage: spcd_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR --out FILE\n"
               "       spcd_perfbench --batch-digest --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--batch-digest") {
      digest = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  if (!args.count("seed")) return usage();
  const std::uint64_t seed = std::stoull(args["seed"]);
  if (digest) {
    std::printf("%016" PRIx64 "\n", batch_digest(seed));
    return 0;
  }
  for (const char* k : {"workload", "seconds", "trace", "workdir", "out"}) {
    if (!args.count(k)) return usage();
  }
  Output out;
  out.workload = args["workload"];
  out.seed = seed;
  const double seconds = std::stod(args["seconds"]);
  const bool trace = args["trace"] == "1";
  const fs::path workdir = args["workdir"];
  try {
    fs::create_directories(workdir);
    if (out.workload == "sim_sp_spcd") {
      run_sim_sp_spcd(seed, seconds, trace, out);
    } else if (out.workload == "svc_inproc_2t") {
      run_svc_inproc(seed, seconds, trace, workdir, out);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", out.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spcd_perfbench: %s\n", e.what());
    return 1;
  }
  if (out.peak_rss_kb == 0) out.peak_rss_kb = self_peak_rss_kb();
  std::ofstream file(args["out"], std::ios::binary | std::ios::trunc);
  file << to_json(out);
  file.flush();
  return file ? 0 : 1;
}
