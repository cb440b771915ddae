/**
 * @file
 * Repository benchmark driver: runs one workload (`fleet`,
 * `paper_tables` or `sweep`) through the library's public API for a
 * fixed host time and writes what it measured as JSON.  run.py builds
 * this program, runs it, checks its outputs and derives the metrics.
 *
 * Each repetition ("rep") of a workload has two timed parts:
 *
 *  - set-up: everything before the first simulated step (fleet
 *    stamping, workload generation, searcher and grid build);
 *  - the run: the simulation to completion, one host caller, a
 *    closed loop of one.
 *
 * A traced rep additionally wraps every public library call the
 * benchmark makes in a span (name, tag, start, end, parent span id,
 * run id).  Spans stay in memory and are written out when the driver
 * ends; untraced reps record none and read no clock inside the run.
 *
 * Usage: perfbench_driver <fleet|paper_tables|sweep> --seed N
 *            --workers N --seconds S --trace 0|1 --out FILE
 *
 * With --trace 0 the driver repeats untraced reps until S seconds have
 * passed; with --trace 1 it alternates untraced and traced reps, and
 * for `sweep` times AnalyticModel::evaluate per grid point in a phase
 * of its own after the reps.
 */

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ecosched/ecosched.hh"

using namespace ecosched;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

// ---------------------------------------------------------------------
// Tracing

/// One finished span: a public library call, timed from outside.
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: no parent
    std::uint64_t run = 0;    ///< shared by every span of one rep
    std::string name;
    std::string tag;
    double start = 0.0; ///< seconds since the driver started
    double end = 0.0;
};

/// In-memory span store, shared by the caller and pool workers.
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin(origin) {}

    std::uint64_t newId() { return lastId.fetch_add(1) + 1; }

    double now() const { return secondsBetween(origin, Clock::now()); }

    void record(SpanRecord span)
    {
        std::lock_guard<std::mutex> lock(mutex);
        spans.push_back(std::move(span));
    }

    /// Every recorded span; call once no span is open any more.
    const std::vector<SpanRecord> &recorded() const { return spans; }

  private:
    Clock::time_point origin;
    std::atomic<std::uint64_t> lastId{0};
    std::mutex mutex;
    std::vector<SpanRecord> spans;
};

/// Where new spans go: no tracer means untraced.
struct TraceCtx
{
    Tracer *tracer = nullptr;
    std::uint64_t run = 0;
    std::uint64_t parent = 0;
};

/// Scoped span; a no-op when the context is untraced.
class Span
{
  public:
    Span(const TraceCtx &ctx, const char *name, std::string tag = {})
        : ctx(ctx)
    {
        if (ctx.tracer == nullptr)
            return;
        rec.id = ctx.tracer->newId();
        rec.parent = ctx.parent;
        rec.run = ctx.run;
        rec.name = name;
        rec.tag = std::move(tag);
        rec.start = ctx.tracer->now();
    }

    ~Span()
    {
        if (ctx.tracer == nullptr)
            return;
        rec.end = ctx.tracer->now();
        ctx.tracer->record(std::move(rec));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /// Context for spans this one causes.
    TraceCtx child() const { return {ctx.tracer, ctx.run, rec.id}; }

  private:
    TraceCtx ctx;
    SpanRecord rec;
};

// ---------------------------------------------------------------------
// Per-rep record

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned workers = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

/// What one rep measured.  `sim` holds simulated (deterministic)
/// values only; `checks` holds the rep's correctness checks.
struct RepRecord
{
    bool traced = false;
    double setupSec = 0.0;
    double wallSec = 0.0;
    std::vector<std::pair<std::string, double>> sim;
    std::vector<std::pair<std::string, bool>> checks;

    void put(std::string key, double value)
    {
        sim.emplace_back(std::move(key), value);
    }

    void check(std::string name, bool ok)
    {
        checks.emplace_back(std::move(name), ok);
    }
};

const std::array<ChipSpec, 2> &
chips()
{
    static const std::array<ChipSpec, 2> both = {xGene2(), xGene3()};
    return both;
}

constexpr std::array<const char *, 2> kChipTags = {"xg2", "xg3"};

// ---------------------------------------------------------------------
// fleet: the 1000-node point of ext_cluster_scaling, stepped through
// start() / advance() / finish().

constexpr std::size_t kFleetNodes = 1000;
constexpr Seconds kFleetArrivals = 120.0;
constexpr double kFleetOccupancy = 0.10;
constexpr std::uint32_t kNodesPerRack = 32;

/// Arrival rate that offers `occupancy` of the fleet's capacity.
double
plannedRate(const std::vector<NodeConfig> &nodes,
            const TrafficModel &planner, double occupancy)
{
    double rate = 0.0;
    for (const NodeConfig &nc : nodes) {
        rate += occupancy * static_cast<double>(nc.chip.numCores)
            / planner.meanCoreSecondsPerJob(nc.chip.numCores);
    }
    return rate;
}

ClusterConfig
fleetConfig(std::uint64_t seed, unsigned workers)
{
    ClusterConfig cc;
    cc.nodes = mixedFleet(kFleetNodes, seed, PolicyKind::Optimal);
    cc.dispatch = DispatchPolicy::EnergyAware;
    cc.traffic.process = ArrivalProcess::Diurnal;
    cc.traffic.duration = kFleetArrivals;
    cc.traffic.diurnalAmplitude = 0.8;
    cc.traffic.seed = seed;
    cc.drainBoundFactor = 20.0;
    cc.jobs = workers;
    cc.traffic.arrivalsPerSecond = plannedRate(
        cc.nodes, TrafficModel(cc.traffic), kFleetOccupancy);

    cc.autoscale.enabled = true;
    cc.autoscale.targetP99 = 420.0;
    cc.autoscale.lowWatermark = 0.7;
    cc.autoscale.evalInterval = 20.0;
    cc.autoscale.window = 200.0;
    cc.autoscale.minLiveNodes = kFleetNodes / 16;

    cc.nodesPerRack = kNodesPerRack;
    CampaignProfile faults;
    faults.duration = kFleetArrivals;
    faults.nodes = static_cast<std::uint32_t>(kFleetNodes);
    faults.nodesPerRack = kNodesPerRack;
    faults.rackCrashesPerHour = 2.0 * 3600.0 / kFleetArrivals;
    faults.rackRestartDelay = 60.0;
    cc.injection = InjectionPlan::randomCampaign(faults, seed);
    return cc;
}

class Fleet
{
  public:
    static constexpr const char *name = "fleet";

    Fleet(const Options &opt, const TraceCtx &ctx)
    {
        ClusterConfig cc = fleetConfig(opt.seed, opt.workers);
        for (const NodeConfig &nc : cc.nodes)
            cores.push_back(nc.chip.numCores);
        {
            Span span(ctx, "ClusterSim::ClusterSim");
            sim = std::make_unique<ClusterSim>(std::move(cc));
        }
        Span span(ctx, "ClusterSim::start");
        sim->start();
    }

    void run(const TraceCtx &ctx)
    {
        while (!sim->finished()) {
            Span span(ctx, "ClusterSim::advance");
            sim->advance();
        }
        Span span(ctx, "ClusterSim::finish");
        result = sim->finish();
    }

    void report(RepRecord &rec) const
    {
        const ClusterResult &r = result;
        double parked = 0.0;
        double awakeCoreSec = 0.0;
        double busyCoreSec = 0.0;
        for (std::size_t i = 0; i < r.nodes.size(); ++i) {
            const NodeSummary &s = r.nodes[i];
            parked += s.parkedTime;
            const double awake = static_cast<double>(cores[i])
                * (r.makespan - s.parkedTime);
            awakeCoreSec += awake;
            busyCoreSec += s.utilization * awake;
        }
        const double nodes = static_cast<double>(r.numNodes);
        rec.put("nodes", nodes);
        rec.put("makespan_s", r.makespan);
        rec.put("jobs_submitted", static_cast<double>(r.jobsSubmitted));
        rec.put("jobs_completed", static_cast<double>(r.jobsCompleted));
        rec.put("jobs_dropped", static_cast<double>(r.jobsDropped));
        rec.put("jobs_lost", static_cast<double>(r.jobsLost));
        rec.put("total_energy_j", r.totalEnergy);
        rec.put("energy_per_job_j", r.energyPerJob());
        rec.put("latency_p99_s", r.latencyP99);
        rec.put("parked_s", parked);
        rec.put("parked_frac", parked / (nodes * r.makespan));
        rec.put("awake_utilization",
                awakeCoreSec > 0.0 ? busyCoreSec / awakeCoreSec : 0.0);
        rec.put("autoscale_parks", static_cast<double>(r.autoscaleParks));
        rec.put("autoscale_unparks",
                static_cast<double>(r.autoscaleUnparks));
        rec.put("node_crashes", static_cast<double>(r.nodeCrashes));
        // Simulated node-seconds: dispatchInterval is 1 s, so this is
        // also the node-epoch count.
        rec.put("sim_seconds", nodes * r.makespan);
        rec.check("fleet.jobs_accounted",
                  r.jobsSubmitted
                      == r.jobsCompleted + r.jobsDropped + r.jobsLost);
    }

  private:
    std::vector<std::uint32_t> cores;
    std::unique_ptr<ClusterSim> sim;
    ClusterResult result;
};

// ---------------------------------------------------------------------
// paper_tables: Tables III/IV — generated hours per chip, each replayed
// under the four configurations, all replays of a chip through one
// mapSpecs call.
//
// Host cost per simulated hour follows the daemon's planning work,
// which differs by about +-20% between generated hours; one hour per
// run would make the timing mostly a property of the seed.  A run
// therefore replays kTableHours hours per chip: hour 0 is generated
// from the seed itself (the paper's protocol, Tables III/IV for that
// seed), the others from seeds forked off it.

constexpr Seconds kTableWorkload = 3600.0;
constexpr std::size_t kTableHours = 6;

constexpr std::array<PolicyKind, 4> kPolicies = {
    PolicyKind::Baseline, PolicyKind::SafeVmin, PolicyKind::Placement,
    PolicyKind::Optimal};
constexpr std::array<const char *, 4> kPolicyTags = {
    "baseline", "safevmin", "placement", "optimal"};

class PaperTables
{
  public:
    static constexpr const char *name = "paper_tables";

    PaperTables(const Options &opt, const TraceCtx &ctx)
        : engine(EngineConfig{opt.workers, opt.seed})
    {
        for (std::size_t c = 0; c < chips().size(); ++c) {
            const ChipSpec &chip = chips()[c];
            for (std::size_t h = 0; h < kTableHours; ++h) {
                GeneratorConfig gc;
                gc.duration = kTableWorkload;
                gc.maxCores = chip.numCores;
                gc.seed = h == 0 ? opt.seed : Rng(opt.seed).fork(h).next();
                gc.chipName = chip.name;
                gc.referenceFrequency = chip.fMax;
                Span span(ctx, "WorkloadGenerator::generate", kChipTags[c]);
                workloads[c].push_back(WorkloadGenerator(gc).generate());
            }
        }
    }

    void run(const TraceCtx &ctx)
    {
        // Replay i is hour i / 4 under policy i % 4.
        std::vector<std::size_t> replays(kTableHours * kPolicies.size());
        for (std::size_t i = 0; i < replays.size(); ++i)
            replays[i] = i;
        for (std::size_t c = 0; c < chips().size(); ++c) {
            Span span(ctx, "ExperimentEngine::mapSpecs", kChipTags[c]);
            const TraceCtx inner = span.child();
            results[c] = engine.mapSpecs<ScenarioResult, std::size_t>(
                replays,
                [this, c, &inner](std::size_t, const std::size_t &i, Rng &) {
                    const std::size_t p = i % kPolicies.size();
                    ScenarioConfig sc;
                    sc.chip = chips()[c];
                    sc.policy = kPolicies[p];
                    Span replay(inner, "ScenarioRunner::run",
                                std::string(kChipTags[c]) + "."
                                    + kPolicyTags[p]);
                    return ScenarioRunner(sc).run(
                        workloads[c][i / kPolicies.size()]);
                });
        }
    }

    void report(RepRecord &rec) const
    {
        double simSeconds = 0.0;
        for (std::size_t c = 0; c < chips().size(); ++c) {
            for (std::size_t h = 0; h < kTableHours; ++h) {
                const std::string hour = std::string(kChipTags[c]) + ".h"
                    + std::to_string(h);
                const ScenarioResult *r =
                    &results[c][h * kPolicies.size()];
                rec.put(hour + ".invocations",
                        static_cast<double>(workloads[c][h].items.size()));
                for (std::size_t p = 0; p < kPolicies.size(); ++p) {
                    const std::string key = hour + "." + kPolicyTags[p];
                    simSeconds += r[p].completionTime;
                    rec.put(key + ".completion_s", r[p].completionTime);
                    rec.put(key + ".energy_j", r[p].energy);
                    rec.put(key + ".migrations",
                            static_cast<double>(r[p].migrations));
                    rec.put(key + ".voltage_transitions",
                            static_cast<double>(r[p].voltageTransitions));
                    rec.put(key + ".daemon_samples",
                            static_cast<double>(
                                r[p].daemonStats.samplesTaken));
                    rec.put(key + ".daemon_plans",
                            static_cast<double>(
                                r[p].daemonStats.plansComputed));
                    rec.check("paper_tables.outcome_ok." + key,
                              r[p].worstOutcome == RunOutcome::Ok);
                }
                rec.check("paper_tables.optimal_saves_energy." + hour,
                          r[3].energy < r[0].energy);
            }
        }
        rec.put("sim_seconds", simSeconds);
    }

  private:
    ExperimentEngine engine;
    std::array<std::vector<GeneratedWorkload>, 2> workloads;
    std::array<std::vector<ScenarioResult>, 2> results;
};

// ---------------------------------------------------------------------
// sweep: the dense grid of ext_modelsearch, answered per (chip,
// objective) once pruned (searchGroup) and once exhaustively
// (runConfigurations on the same points).

constexpr std::array<search::Objective, 2> kObjectives = {
    search::Objective::Energy, search::Objective::Ed2p};

/// Dense (threads x ladder frequency) grids, one per figure benchmark.
std::vector<std::vector<search::ConfigPoint>>
denseGrids(const ChipSpec &chip, std::uint64_t seed)
{
    std::vector<std::vector<search::ConfigPoint>> grids;
    const auto freqs = chip.frequencyLadder();
    for (const BenchmarkProfile *bench :
         Catalog::instance().figureBenchmarks()) {
        std::vector<search::ConfigPoint> points;
        for (std::uint32_t t = 1; t <= chip.numCores; ++t) {
            for (Hertz f : freqs) {
                points.push_back({bench, t, Allocation::Spreaded, f,
                                  /*undervolt=*/true, seed});
            }
        }
        grids.push_back(std::move(points));
    }
    return grids;
}

/// Argmin by a grid-order scan with strict `<`, as the search's
/// exhaustive reference does.
std::size_t
exhaustiveArgmin(search::Objective objective,
                 const std::vector<search::RunStats> &stats)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < stats.size(); ++i) {
        if (search::objectiveValue(objective, stats[i])
            < search::objectiveValue(objective, stats[best])) {
            best = i;
        }
    }
    return best;
}

class Sweep
{
  public:
    static constexpr const char *name = "sweep";

    Sweep(const Options &opt, const TraceCtx &)
        : engine(EngineConfig{opt.workers, opt.seed})
    {
        for (std::size_t c = 0; c < chips().size(); ++c) {
            grids[c] = denseGrids(chips()[c], opt.seed);
            for (search::Objective objective : kObjectives) {
                search::SweepSearch::Config cfg;
                cfg.objective = objective;
                Pass pass;
                pass.chip = c;
                pass.objective = objective;
                pass.searcher = std::make_unique<search::SweepSearch>(
                    engine, chips()[c], cfg);
                passes.push_back(std::move(pass));
            }
        }
    }

    void run(const TraceCtx &ctx)
    {
        for (Pass &pass : passes) {
            const auto &grid = grids[pass.chip];
            const std::string label = pass.label();
            for (const auto &points : grid) {
                Span span(ctx, "SweepSearch::searchGroup", label);
                pass.pruned.push_back(pass.searcher->searchGroup(points));
            }
            search::MachinePool pool;
            for (const auto &points : grid) {
                Span span(ctx, "search::runConfigurations", label);
                pass.exhaustive.push_back(search::runConfigurations(
                    engine, chips()[pass.chip], points, nullptr, &pool));
            }
        }
    }

    void report(RepRecord &rec) const
    {
        const auto benches = Catalog::instance().figureBenchmarks();
        double simSeconds = 0.0;
        for (const Pass &pass : passes) {
            const std::string label = pass.label();
            const search::SearchStats &s = pass.searcher->totals();
            rec.put(label + ".total_points",
                    static_cast<double>(s.totalPoints));
            rec.put(label + ".simulated_points",
                    static_cast<double>(s.simulatedPoints));
            rec.put(label + ".waves", static_cast<double>(s.waves));
            for (std::size_t g = 0; g < pass.pruned.size(); ++g) {
                const search::GroupResult &pruned = pass.pruned[g];
                const auto &all = pass.exhaustive[g];
                const std::size_t best =
                    exhaustiveArgmin(pass.objective, all);
                const std::string group = label + "." + benches[g]->name;
                rec.put(group + ".best_index",
                        static_cast<double>(pruned.bestIndex));
                rec.put(group + ".best_value",
                        search::objectiveValue(pass.objective,
                                               pruned.best));
                rec.check("sweep.argmin_match." + group,
                          best == pruned.bestIndex
                              && std::memcmp(&all[best], &pruned.best,
                                             sizeof(search::RunStats))
                                  == 0);
                for (std::size_t i = 0; i < all.size(); ++i) {
                    simSeconds += all[i].runtime;
                    if (pruned.simulated[i])
                        simSeconds += pruned.results[i].runtime;
                }
            }
        }
        rec.put("groups",
                static_cast<double>(passes.size() * benches.size()));
        rec.put("sim_seconds", simSeconds);
    }

    /// Traced phase of its own: AnalyticModel::evaluate once per grid
    /// point, one span per call.  Returns a checksum so the calls
    /// cannot be optimised away.
    static double timeModel(const Options &opt, const TraceCtx &ctx)
    {
        double checksum = 0.0;
        for (std::size_t c = 0; c < chips().size(); ++c) {
            const search::AnalyticModel model(chips()[c]);
            for (const auto &points : denseGrids(chips()[c], opt.seed)) {
                for (const search::ConfigPoint &p : points) {
                    Span span(ctx, "AnalyticModel::evaluate",
                              kChipTags[c]);
                    checksum += model.evaluate(p).stats.energy;
                }
            }
        }
        return checksum;
    }

  private:
    struct Pass
    {
        std::size_t chip = 0;
        search::Objective objective = search::Objective::Energy;
        std::unique_ptr<search::SweepSearch> searcher;
        std::vector<search::GroupResult> pruned;
        std::vector<std::vector<search::RunStats>> exhaustive;

        std::string label() const
        {
            return std::string(kChipTags[chip]) + "."
                + search::objectiveName(objective);
        }
    };

    // The searchers hold a reference to the engine: keep it first.
    ExperimentEngine engine;
    std::array<std::vector<std::vector<search::ConfigPoint>>, 2> grids;
    std::vector<Pass> passes;
};

// ---------------------------------------------------------------------
// Measurement loop and output

/// Set-up-only reps top the set-up samples up to kMinSetups and at
/// least kSetupSampleSec of set-up work (at most kMaxSetups samples):
/// set-up takes microseconds to milliseconds, so its median needs
/// more samples than the reps give.
constexpr std::size_t kMinSetups = 25;
constexpr std::size_t kMaxSetups = 2000;
constexpr double kSetupSampleSec = 0.25;

struct Measured
{
    std::vector<RepRecord> reps;
    std::vector<double> setupOnlySec;
    double modelChecksum = 0.0;
};

template <typename W>
Measured
measure(const Options &opt, Tracer &tracer)
{
    Measured m;
    std::uint64_t run = 0;
    const auto rep = [&](bool traced) {
        const TraceCtx top{traced ? &tracer : nullptr, ++run, 0};
        RepRecord rec;
        rec.traced = traced;
        {
            Span workload(top, W::name);
            const TraceCtx ctx = workload.child();
            const auto t0 = Clock::now();
            W w(opt, ctx);
            const auto t1 = Clock::now();
            w.run(ctx);
            const auto t2 = Clock::now();
            rec.setupSec = secondsBetween(t0, t1);
            rec.wallSec = secondsBetween(t1, t2);
            w.report(rec);
        }
        m.reps.push_back(std::move(rec));
    };

    const auto begin = Clock::now();
    do {
        rep(false);
        if (opt.trace)
            rep(true);
    } while (secondsBetween(begin, Clock::now()) < opt.seconds);

    double spent = 0.0;
    while (m.reps.size() + m.setupOnlySec.size() < kMinSetups
           || (spent < kSetupSampleSec
               && m.setupOnlySec.size() < kMaxSetups)) {
        const auto t0 = Clock::now();
        W w(opt, TraceCtx{});
        m.setupOnlySec.push_back(secondsBetween(t0, Clock::now()));
        spent += m.setupOnlySec.back();
    }

    if constexpr (std::is_same_v<W, Sweep>) {
        if (opt.trace) {
            const TraceCtx phase{&tracer, ++run, 0};
            m.modelChecksum = Sweep::timeModel(opt, phase);
        }
    }
    return m;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss; // kilobytes on Linux
}

std::string
toJson(const Options &opt, const Measured &m,
       const std::vector<SpanRecord> &spans)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\n\"workload\": " << jsonString(opt.workload)
       << ",\n\"seed\": " << opt.seed << ",\n\"workers\": " << opt.workers
       << ",\n\"seconds\": " << opt.seconds
       << ",\n\"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\n\"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ",\n\"peak_rss_kb\": " << peakRssKb()
       << ",\n\"model_checksum\": " << m.modelChecksum
       << ",\n\"setup_only_s\": [";
    for (std::size_t i = 0; i < m.setupOnlySec.size(); ++i)
        os << (i ? ", " : "") << m.setupOnlySec[i];
    os << "],\n\"reps\": [\n";
    for (std::size_t i = 0; i < m.reps.size(); ++i) {
        const RepRecord &r = m.reps[i];
        os << " {\"traced\": " << (r.traced ? "true" : "false")
           << ", \"setup_s\": " << r.setupSec
           << ", \"wall_s\": " << r.wallSec << ",\n  \"sim\": {";
        for (std::size_t k = 0; k < r.sim.size(); ++k) {
            os << (k ? ", " : "") << jsonString(r.sim[k].first) << ": "
               << r.sim[k].second;
        }
        os << "},\n  \"checks\": {";
        for (std::size_t k = 0; k < r.checks.size(); ++k) {
            os << (k ? ", " : "") << jsonString(r.checks[k].first) << ": "
               << (r.checks[k].second ? "true" : "false");
        }
        os << "}}" << (i + 1 < m.reps.size() ? "," : "") << "\n";
    }
    os << "],\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        os << " [" << s.id << ", " << s.parent << ", " << s.run << ", "
           << jsonString(s.name) << ", " << jsonString(s.tag) << ", "
           << s.start << ", " << s.end << "]"
           << (i + 1 < spans.size() ? "," : "") << "\n";
    }
    os << "]\n}\n";
    return os.str();
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver <fleet|paper_tables|sweep> "
                 "--seed N --workers N --seconds S --trace 0|1 "
                 "--out FILE\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing workload");
    Options opt;
    opt.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--workers")
            opt.workers = static_cast<unsigned>(std::atoi(value.c_str()));
        else if (arg == "--seconds")
            opt.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            opt.trace = value == "1";
        else if (arg == "--out")
            opt.out = value;
        else
            usage("unknown option " + arg);
    }
    if (opt.workers == 0)
        usage("--workers must be positive");
    if (opt.out.empty())
        usage("--out is required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Tracer tracer(Clock::now());
    Measured m;
    if (opt.workload == Fleet::name)
        m = measure<Fleet>(opt, tracer);
    else if (opt.workload == PaperTables::name)
        m = measure<PaperTables>(opt, tracer);
    else if (opt.workload == Sweep::name)
        m = measure<Sweep>(opt, tracer);
    else
        usage("unknown workload " + opt.workload);

    std::ofstream file(opt.out);
    file << toJson(opt, m, tracer.recorded());
    if (!file) {
        std::cerr << "perfbench_driver: failed to write " << opt.out
                  << "\n";
        return 1;
    }
    return 0;
}
