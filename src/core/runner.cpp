#include "core/runner.hpp"

#include <algorithm>

#include "core/mapping_strategy.hpp"
#include "core/metrics_export.hpp"
#include "core/oracle.hpp"
#include "core/spcd_kernel.hpp"
#include "sim/energy.hpp"
#include "sim/machine.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spcd::core {

namespace {

// Per-component salts layered on top of cell_seed(): each random stream in
// a cell is fully determined by (benchmark, policy, repetition).
constexpr std::uint64_t kRandomPlacementSalt = 0x7a7d;
constexpr std::uint64_t kOsBalancerSalt = 0xba1a;
constexpr std::uint64_t kSpcdKernelSalt = 0x5bcd;
constexpr std::uint64_t kChaosSalt = 0xc4a0;
constexpr std::uint64_t kAdversarySalt = 0xad5e;

std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : name) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Runner::Runner(RunnerConfig config) : config_(std::move(config)) {}

std::uint64_t Runner::cell_seed(const std::string& workload_name,
                                std::uint32_t repetition) const {
  return util::derive_seed(config_.base_seed,
                           name_hash(workload_name) + repetition);
}

const sim::Placement& Runner::oracle_placement(
    const std::string& workload_name, const WorkloadFactory& factory) {
  std::unique_lock<std::mutex> lock(mu_);
  auto [it, inserted] = oracle_cache_.try_emplace(workload_name);
  if (!inserted) {
    // Another thread is profiling (or has profiled) this workload.
    oracle_ready_cv_.wait(lock, [&] { return it->second.ready; });
    return it->second.placement;
  }
  lock.unlock();

  SPCD_LOG_INFO("oracle: profiling %s", workload_name.c_str());
  // The profiling run is shared and computed by whichever cell asks first;
  // under SPCD_JOBS > 1 that cell is scheduling-dependent, so capturing its
  // engine events would break trace determinism. Silence capture here.
  obs::ScopedSession no_capture(nullptr);
  const std::uint64_t seed =
      util::derive_seed(config_.base_seed, name_hash(workload_name));

  sim::Machine machine(config_.machine);
  mem::AddressSpace as = machine.make_address_space();
  auto workload = factory(seed);
  SPCD_EXPECTS(workload != nullptr);
  const std::uint32_t n = workload->num_threads();

  sim::Engine engine(machine, as, *workload,
                     os_spread_placement(machine.topology(), n),
                     config_.engine);
  OracleTracer tracer(n, /*granularity_shift=*/6,
                      config_.spcd.table.time_window);
  tracer.install(engine);
  engine.run();

  // The oracle uses the same strategy the kernel is configured with, so
  // oracle-vs-SPCD comparisons isolate the detection mechanism, not the
  // mapping algorithm.
  sim::Placement placement =
      make_mapping_strategy(config_.spcd.mapping)
          ->map(tracer.matrix(), machine.topology())
          .placement;

  lock.lock();
  it->second.matrix = tracer.matrix();
  it->second.placement = std::move(placement);
  it->second.ready = true;
  lock.unlock();
  oracle_ready_cv_.notify_all();
  return it->second.placement;
}

const CommMatrix* Runner::oracle_matrix(
    const std::string& workload_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = oracle_cache_.find(workload_name);
  return it == oracle_cache_.end() || !it->second.ready
             ? nullptr
             : &it->second.matrix;
}

RunMetrics Runner::run_once(const std::string& workload_name,
                            const WorkloadFactory& factory,
                            MappingPolicy policy, std::uint32_t repetition) {
  const std::uint64_t rep_seed = cell_seed(workload_name, repetition);

  // One observability session per run, bound to this worker thread for the
  // run's duration. Everything recorded is a function of the cell's
  // deterministic simulation, so the capture is SPCD_JOBS-invariant.
  std::unique_ptr<obs::Session> session;
  if (config_.trace.enabled) {
    session = std::make_unique<obs::Session>(config_.trace);
  }
  obs::ScopedSession scope(session.get());

  sim::Machine machine(config_.machine);
  mem::AddressSpace as = machine.make_address_space();
  auto workload = factory(rep_seed);
  SPCD_EXPECTS(workload != nullptr);
  const std::uint32_t n = workload->num_threads();

  sim::Placement placement;
  switch (policy) {
    case MappingPolicy::kOs:
    case MappingPolicy::kSpcd:
      placement = os_spread_placement(machine.topology(), n);
      break;
    case MappingPolicy::kRandom:
      placement = random_placement(
          machine.topology(), n,
          util::derive_seed(rep_seed, kRandomPlacementSalt));
      break;
    case MappingPolicy::kOracle:
      placement = oracle_placement(workload_name, factory);
      break;
  }

  sim::Engine engine(machine, as, *workload, placement, config_.engine);

  std::unique_ptr<OsLoadBalancer> balancer;
  std::unique_ptr<chaos::PerturbationEngine> chaos_engine;
  std::unique_ptr<chaos::AdversaryEngine> adversary_engine;
  std::unique_ptr<SpcdKernel> kernel;
  if (policy == MappingPolicy::kOs) {
    balancer = std::make_unique<OsLoadBalancer>(
        config_.balancer, util::derive_seed(rep_seed, kOsBalancerSalt));
    balancer->install(engine);
  } else if (policy == MappingPolicy::kSpcd) {
    // A disabled chaos config creates no engine at all: the unperturbed
    // path is byte-identical to a build without the chaos layer.
    if (config_.chaos.enabled()) {
      chaos_engine = std::make_unique<chaos::PerturbationEngine>(
          config_.chaos, util::derive_seed(rep_seed, kChaosSalt));
    }
    // Like chaos: a disabled adversary config creates no engine, so the
    // unattacked path is byte-identical to a build without the subsystem.
    if (config_.adversary.enabled()) {
      adversary_engine = std::make_unique<chaos::AdversaryEngine>(
          config_.adversary, util::derive_seed(rep_seed, kAdversarySalt), n,
          config_.spcd.table.granularity_shift);
    }
    kernel = std::make_unique<SpcdKernel>(
        config_.spcd, n, util::derive_seed(rep_seed, kSpcdKernelSalt),
        chaos_engine.get(), adversary_engine.get());
    kernel->install(engine);
  }

  engine.run();
  SPCD_ASSERT(!engine.timed_out());

  const sim::PerfCounters& c = engine.counters();
  const double seconds = engine.exec_seconds();
  const sim::EnergyBreakdown energy =
      sim::compute_energy(c, seconds, config_.machine);

  RunMetrics m;
  m.exec_seconds = seconds;
  m.instructions = c.instructions;
  m.l2_mpki = c.l2_mpki();
  m.l3_mpki = c.l3_mpki();
  m.c2c_transactions = c.c2c_total();
  m.invalidations = c.invalidations;
  m.dram_accesses = c.dram_total();
  m.package_joules = energy.package_joules;
  m.dram_joules = energy.dram_joules;
  m.package_epi_nj = energy.package_epi_nj(c.instructions);
  m.dram_epi_nj = energy.dram_epi_nj(c.instructions);
  const double cpu_time =
      static_cast<double>(engine.finish_time()) * static_cast<double>(n);
  if (cpu_time > 0.0) {
    m.detection_overhead =
        static_cast<double>(c.spcd_detection_cycles) / cpu_time;
    m.mapping_overhead = static_cast<double>(c.mapping_cycles) / cpu_time;
  }
  m.minor_faults = c.minor_faults;
  m.injected_faults = c.injected_faults;
  if (kernel) {
    m.migration_events = kernel->migration_events();
    m.saturation_resets = kernel->detector().saturation_resets();
    m.migration_retries = kernel->migration_retries();
    m.migration_giveups = kernel->migration_giveups();
    m.overrun_skips = kernel->injector().overrun_skips();
    if (chaos_engine) {
      m.perturbations_injected = chaos_engine->counters().total();
    }
    m.anomalies_flagged = kernel->detector().anomalies_flagged();
    m.admissions_refused = kernel->detector().admissions_refused();
    m.remaps_deferred = kernel->remaps_deferred();
    m.remaps_rolled_back = kernel->remaps_rolled_back();
    m.spcd_matrix = std::make_shared<const CommMatrix>(kernel->matrix());
  }
  if (session) {
    // Fold the run's headline and degradation counters into the registry
    // (one definition, in metrics_export.cpp) and attach the capture.
    obs::MetricsRegistry& reg = session->metrics();
    for (const MetricDescriptor& d : degradation_metric_descriptors()) {
      reg.counter(d.name).add(static_cast<std::uint64_t>(d.get(m)));
    }
    reg.counter("run.minor_faults").add(m.minor_faults);
    reg.counter("run.injected_faults").add(m.injected_faults);
    reg.counter("run.migration_events").add(m.migration_events);
    reg.gauge("run.exec_seconds").set(m.exec_seconds);
    reg.gauge("run.detection_overhead").set(m.detection_overhead);
    reg.gauge("run.mapping_overhead").set(m.mapping_overhead);
    m.obs = std::make_shared<const obs::RunCapture>(session->capture());
  }
  return m;
}

std::vector<RunMetrics> Runner::run_policy(const std::string& workload_name,
                                           const WorkloadFactory& factory,
                                           MappingPolicy policy) {
  std::vector<RunMetrics> out(config_.repetitions);
  const unsigned jobs =
      config_.jobs != 0 ? config_.jobs : util::configured_jobs();
  util::ThreadPool pool(std::max(1u, std::min<unsigned>(
      jobs, config_.repetitions)));
  for (std::uint32_t rep = 0; rep < config_.repetitions; ++rep) {
    pool.submit([this, &out, &workload_name, &factory, policy, rep] {
      out[rep] = run_once(workload_name, factory, policy, rep);
    });
  }
  pool.wait();
  return out;
}

std::vector<RunMetrics> Runner::run_policy_supervised(
    const std::string& workload_name, const WorkloadFactory& factory,
    MappingPolicy policy, const util::SupervisorConfig& supervision,
    util::SupervisorReport* report) {
  std::vector<RunMetrics> out(config_.repetitions);
  const unsigned jobs =
      config_.jobs != 0 ? config_.jobs : util::configured_jobs();
  util::Supervisor supervisor(
      std::max(1u, std::min<unsigned>(jobs, config_.repetitions)),
      supervision, config_.base_seed);
  for (std::uint32_t rep = 0; rep < config_.repetitions; ++rep) {
    // Per-(cell, policy) stream for backoff jitter and worker chaos; the
    // simulation itself still draws only from cell_seed() + salts.
    const std::uint64_t seed = util::derive_seed(
        cell_seed(workload_name, rep), static_cast<std::uint64_t>(policy));
    supervisor.submit(
        workload_name + "/" + std::string(to_string(policy)) + "/rep" +
            std::to_string(rep),
        seed,
        [this, &out, &workload_name, &factory, policy, rep, seed](
            const util::CancelToken& token, std::uint32_t attempt) {
          // Worker-level fault injection wraps the repetition, never the
          // simulation, so successful attempts stay bit-identical.
          chaos::apply_worker_plan(
              chaos::worker_plan(config_.chaos, seed, attempt),
              config_.chaos, token);
          out[rep] = run_once(workload_name, factory, policy, rep);
        });
  }
  util::SupervisorReport result = supervisor.wait();
  if (report != nullptr) *report = std::move(result);
  return out;
}

}  // namespace spcd::core
