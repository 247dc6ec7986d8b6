#include "knitbench/activities.h"

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/session.h"
#include "src/driver/knitc.h"
#include "src/driver/pipeline.h"
#include "src/flatten/flatten.h"
#include "src/minic/cparser.h"
#include "src/oskit/corpus.h"
#include "src/reconfig/reconfig.h"
#include "src/serve/serve.h"
#include "src/support/mangle.h"
#include "src/vm/passes.h"
#include "src/vm/profile_trace.h"

namespace knitbench {

using knit::Diagnostics;
using knit::KnitBuildResult;
using knit::KnitcOptions;
using knit::Result;
using knit::RouterStats;
using knit::SourceMap;

void Tally::Fail(long long ops, const std::string& why) {
  failed += ops;
  errors.push_back(why);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

knit::CostModel RouterCostModel() {
  knit::CostModel cost;
  cost.icache_bytes = 1024;
  return cost;
}

namespace {

constexpr int kPacketsPerSwap = 25;
constexpr int kFleetShards = 3;  // plus the feed task: 4 threads
constexpr int kFleetBatch = 32;
constexpr int kBuildJobs = 4;

// Nearest-rank quantile.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * values.size() + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double value : values) {
    sum += value;
  }
  return values.empty() ? 0 : sum / values.size();
}

void Put(Metrics& metrics, const std::string& name, double value, const char* unit) {
  metrics.emplace(name, Metric{value, unit});
}

// "" when `stats` matches the run's references, else what differs. A hot swap
// restarts the replaced element's counter (state is not migrated), so swap
// runs check only what the session itself counts: packets, tx count, tx hash.
std::string CheckStats(const RouterStats& stats, const Context& ctx,
                       bool element_counters = true) {
  const knit::TraceExpectation& want = ctx.expected;
  std::string diff;
  auto check = [&](const char* name, uint64_t got, uint64_t expected) {
    if (got != expected) {
      diff += std::string(diff.empty() ? "" : ", ") + name + " " + std::to_string(got) +
              " != reference " + std::to_string(expected);
    }
  };
  check("packets", stats.packets, ctx.trace.size());
  if (element_counters) {
    check("in0", stats.in0, want.in0);
    check("in1", stats.in1, want.in1);
    check("ip", stats.ip, want.ip);
    check("out", stats.out, want.out);
    check("drop", stats.drop, want.drop);
  }
  check("tx", stats.tx_count, want.tx);
  check("tx_hash", stats.tx_hash, ctx.reference_tx_hash);
  return diff;
}

// One build through the seven pipeline stages, each called on its own inside a
// span; `seconds` covers the seven calls.
struct StagedBuild {
  knit::OptimizedImage image;
  knit::PipelineMetrics metrics;
  double seconds = 0;
};

bool BuildStaged(Context& ctx, const std::string& knit_text, const SourceMap& sources,
                 const std::string& top, const KnitcOptions& options, StagedBuild& out) {
  Diagnostics diags;
  knit::KnitPipeline pipeline(options);
  SpanLog& spans = ctx.spans;
  spans.NewRequest();
  Span build(spans, "driver.build");
  auto failed = [&](const char* stage) {
    ctx.tally.Fail(1, top + ": " + stage + " failed: " + diags.ToString());
    return false;
  };
  Result<knit::ParsedProgram> parsed = [&] {
    Span span(spans, "knitlang.parse");
    return pipeline.Parse(knit_text, diags);
  }();
  if (!parsed.ok()) {
    return failed("parse");
  }
  Result<knit::ElaboratedConfig> elaborated = [&] {
    Span span(spans, "knitsem.elaborate");
    return pipeline.Elaborate(parsed.value(), top, diags);
  }();
  if (!elaborated.ok()) {
    return failed("elaborate");
  }
  Result<knit::ScheduledConfig> scheduled = [&] {
    Span span(spans, "sched.schedule");
    return pipeline.Schedule(elaborated.value(), diags);
  }();
  if (!scheduled.ok()) {
    return failed("schedule");
  }
  Result<knit::CheckedConfig> checked = [&] {
    Span span(spans, "constraints.check");
    return pipeline.Check(scheduled.value(), diags);
  }();
  if (!checked.ok()) {
    return failed("check");
  }
  Result<knit::CompiledUnits> compiled = [&] {
    Span span(spans, "driver.compile");
    return pipeline.Compile(checked.value(), sources, diags);
  }();
  if (!compiled.ok()) {
    return failed("compile");
  }
  Result<knit::LinkedImage> linked = [&] {
    Span span(spans, "ld.link");
    return pipeline.Link(compiled.value(), diags);
  }();
  if (!linked.ok()) {
    return failed("link");
  }
  Result<knit::OptimizedImage> optimized = [&] {
    Span span(spans, "vm.link_optimize");
    return pipeline.LinkOptimize(linked.value(), diags);
  }();
  if (!optimized.ok()) {
    return failed("link-optimize");
  }
  out.seconds = build.End();
  out.image = optimized.take();
  out.metrics = pipeline.metrics();

  if (spans.enabled()) {
    BuildLayers& layers = ctx.build_layers;
    ++layers.builds;
    layers.objcopy_seconds += out.metrics.StageSeconds("objcopy");
    if (const knit::StageMetrics* compile = out.metrics.Find("compile")) {
      layers.compile_tasks += compile->items;
      layers.compile_threads = std::max(layers.compile_threads, compile->threads);
    }
    layers.cache_hits += out.metrics.CacheHits();
    layers.cache_misses += out.metrics.CacheMisses();
  }
  return true;
}

// Image-scope pass shrinkage, summed into `removed` by pass name.
void AddImagePasses(const std::vector<knit::PassStats>& stats,
                    std::map<std::string, long long>& removed) {
  for (const knit::PassStats& pass : stats) {
    if (pass.scope == "image") {
      removed[pass.pass] += pass.insns_before - pass.insns_after;
    }
  }
}

void PutImageLayers(Metrics& metrics, long long image_insns,
                    const std::map<std::string, long long>& removed) {
  Put(metrics, "vm.image_insns", image_insns, "insns");
  for (const auto& [pass, insns] : removed) {
    Put(metrics, "vm.pass." + pass + ".insns_removed", insns, "insns");
  }
}

// Opens a session on `machine` over a Clack build and runs knit__init.
std::unique_ptr<knit::RouterSession> OpenSession(Context& ctx, const KnitBuildResult& build,
                                                 knit::Machine& machine) {
  Diagnostics diags;
  Result<std::unique_ptr<knit::RouterSession>> session =
      knit::RouterSession::Open(machine, knit::RouterProgram::ClackEntryNames(build),
                                knit::EnvSymbol("dev", "dev_tx"), diags);
  if (!session.ok()) {
    ctx.tally.Fail(1, "session open failed: " + diags.ToString());
    return nullptr;
  }
  knit::RunResult init = machine.Call(build.init_function);
  if (!init.ok) {
    ctx.tally.Fail(1, "knit__init failed: " + init.error);
    return nullptr;
  }
  return session.take();
}

// Batch pointers over the whole trace, for RouterSession::FeedBatch.
struct TraceBatch {
  explicit TraceBatch(const std::vector<knit::TracePacket>& trace) {
    for (size_t i = 0; i < trace.size(); ++i) {
      packets.push_back(&trace[i]);
      seqs.push_back(i);
    }
  }
  std::vector<const knit::TracePacket*> packets;
  std::vector<uint64_t> seqs;
};

// Single-session VM and session costs on `build`'s image over the run's trace:
// one timed FeedBatch pass, then one profiled pass for the boundary calls.
// Puts the vm.* / clack.* session metrics and returns the host packets/s of the
// timed pass (0 on failure).
double PutSessionLayers(Context& ctx, const KnitBuildResult& build, Metrics& metrics) {
  const TraceBatch batch(ctx.trace);
  const long long packets = static_cast<long long>(ctx.trace.size());
  double pps = 0;
  for (bool profiled : {false, true}) {
    knit::Machine machine(build.image, RouterCostModel());
    std::unique_ptr<knit::RouterSession> session = OpenSession(ctx, build, machine);
    if (!session) {
      return 0;
    }
    if (profiled) {
      machine.EnableProfiling(0);
    }
    Diagnostics diags;
    const long long insns_before = machine.insns();
    ctx.tally.attempted += packets;
    Span feed(ctx.spans, profiled ? "clack.feed_profiled" : "clack.feed");
    Result<void> fed = session->FeedBatch(batch.packets.data(), batch.seqs.data(),
                                          batch.packets.size(), diags);
    const double seconds = feed.End();
    const long long insns = machine.insns() - insns_before;
    Result<RouterStats> stats = session->Close(diags);
    if (!fed.ok() || !stats.ok()) {
      ctx.tally.Fail(packets, "single-session feed failed: " + diags.ToString());
      return 0;
    }
    const std::string mismatch = CheckStats(stats.value(), ctx);
    if (!mismatch.empty()) {
      ctx.tally.Fail(packets, "single session: " + mismatch);
    }
    if (profiled) {
      Put(metrics, "vm.boundary_calls_per_kpkt",
          1e3 * stats.value().profile.boundary_calls / packets, "calls");
    } else {
      pps = packets / seconds;
      Put(metrics, "vm.insns_per_pkt", double(insns) / packets, "insns");
      Put(metrics, "vm.ns_per_insn", seconds * 1e9 / insns, "ns");
      Put(metrics, "clack.feed_us_per_pkt", seconds * 1e6 / packets, "us");
    }
  }
  return pps;
}

// ---- fleet: RouterFleet serving, the `knitc serve` path ----------------------

class FleetActivity : public Activity {
 public:
  explicit FleetActivity(Context& ctx) : ctx_(ctx) {}

  bool Setup() override {
    fleet_.reset();
    KnitcOptions options;
    options.opt_level = 2;
    StagedBuild staged;
    if (!BuildStaged(ctx_, knit::ClackKnit(), knit::ClackSources(), "ClackRouter", options,
                     staged)) {
      return false;
    }
    image_insns_ = knit::ImageInsnCount(staged.image.linked.image);
    passes_removed_.clear();
    AddImagePasses(staged.image.pass_stats, passes_removed_);
    build_ = std::make_shared<const KnitBuildResult>(
        knit::KnitBuildResultFrom(std::move(staged.image.linked), staged.metrics));
    return Clone();
  }

  double Run(double seconds) override {
    std::vector<double> costs;
    const long long packets = static_cast<long long>(ctx_.trace.size());
    const Clock::time_point start = Clock::now();
    do {
      if (!fleet_ && !Clone()) {
        break;
      }
      ctx_.spans.NewRequest();
      Diagnostics diags;
      Span serve(ctx_.spans, "serve.serve");
      Result<knit::ServeReport> served = fleet_->Serve(ctx_.trace, diags);
      const double taken = serve.End();
      fleet_.reset();
      ctx_.tally.attempted += packets;
      if (!served.ok()) {
        ctx_.tally.Fail(packets, "fleet serve failed: " + diags.ToString());
        break;
      }
      const knit::ServeReport& report = served.value();
      const std::string mismatch = CheckStats(report.total, ctx_);
      if (!mismatch.empty()) {
        ctx_.tally.Fail(packets, "fleet: " + mismatch);
      }
      costs.push_back(taken / packets);
      pps_.push_back(packets / taken);
      total_ = report.total;
      if (ctx_.spans.enabled()) {
        RecordServeLayers(report, taken);
      }
    } while (SecondsSince(start) < seconds);
    return Median(costs);
  }

  void Report(Metrics& metrics) const override {
    if (pps_.empty()) {
      return;
    }
    Put(metrics, "serve_pps", Median(pps_), "pkt/s");
    Put(metrics, "cycles_per_pkt", total_.CyclesPerPacket(), "cycles");
    Put(metrics, "stalls_per_pkt", total_.StallsPerPacket(), "cycles");
    Put(metrics, "text_bytes", total_.text_bytes, "bytes");
  }

  void ReportLayers(Metrics& metrics) override {
    if (serves_ == 0 || !build_) {
      return;
    }
    Put(metrics, "serve.serve_s", serve_seconds_ / serves_, "s");
    Put(metrics, "serve.batches", double(batches_) / serves_, "count");
    Put(metrics, "serve.mean_batch", double(packets_) / batches_, "pkt");
    Put(metrics, "serve.max_queue_depth", double(max_queue_depth_), "pkt");
    Put(metrics, "serve.shard_skew", skew_sum_ / serves_, "ratio");
    PutImageLayers(metrics, image_insns_, passes_removed_);
    // Against one session on this same image, whichever activity's image the
    // vm.* metrics describe.
    const double single_pps = PutSessionLayers(ctx_, *build_, metrics);
    if (single_pps > 0) {
      Put(metrics, "serve.scaling_eff", Median(pps_) / (kFleetShards * single_pps), "ratio");
    }
  }

 private:
  bool Clone() {
    Diagnostics diags;
    knit::ServeOptions options;
    options.shards = kFleetShards;
    options.batch = kFleetBatch;
    options.cost = RouterCostModel();
    Span clone(ctx_.spans, "serve.clone");
    Result<std::unique_ptr<knit::RouterFleet>> fleet = knit::RouterFleet::FromBuild(
        build_, knit::RouterProgram::ClackEntryNames(*build_), knit::EnvSymbol("dev", "dev_tx"),
        options, diags);
    if (!fleet.ok()) {
      ctx_.tally.Fail(1, "fleet clone failed: " + diags.ToString());
      return false;
    }
    fleet_ = fleet.take();
    return true;
  }

  void RecordServeLayers(const knit::ServeReport& report, double seconds) {
    ++serves_;
    serve_seconds_ += seconds;
    long long most = 0;
    for (const knit::ShardReport& shard : report.shards) {
      batches_ += shard.batches;
      max_queue_depth_ = std::max(max_queue_depth_, shard.max_queue_depth);
      most = std::max<long long>(most, shard.stats.packets);
    }
    packets_ += report.total.packets;
    const double mean = double(report.total.packets) / report.shards.size();
    skew_sum_ += mean > 0 ? most / mean : 0;
  }

  Context& ctx_;
  std::shared_ptr<const KnitBuildResult> build_;
  std::unique_ptr<knit::RouterFleet> fleet_;  // cloned ahead of the next Serve
  long long image_insns_ = 0;
  std::map<std::string, long long> passes_removed_;
  std::vector<double> pps_;
  RouterStats total_;

  // Traced Serve calls only.
  int serves_ = 0;
  double serve_seconds_ = 0;
  long long batches_ = 0;
  long long packets_ = 0;
  size_t max_queue_depth_ = 0;
  double skew_sum_ = 0;
};

// ---- build: cold corpus passes plus one-edit rebuilds ------------------------

struct CorpusTarget {
  const char* top;
  int opt_level;
  bool oskit;
  bool profile_use;
};

constexpr CorpusTarget kCorpus[] = {
    {"ClackRouter", 1, false, false},    {"ClackRouter", 2, false, false},
    {"ClackRouterFlat", 1, false, false}, {"ClackRouterFlat", 2, false, false},
    {"HandRouter", 1, false, false},     {"HandRouter", 2, false, false},
    {"HandRouterFlat", 1, false, false}, {"HandRouterFlat", 2, false, false},
    {"WebKernel", 1, true, false},       {"WebKernel", 2, true, false},
    {"WebKernelFlat", 1, true, false},   {"WebKernelFlat", 2, true, false},
    {"ClackRouter", 2, false, true},
};
constexpr size_t kRebuildTarget = 1;  // ClackRouter -O2

class BuildActivity : public Activity {
 public:
  explicit BuildActivity(Context& ctx) : ctx_(ctx), edit_rng_(ctx.seed) {}

  // Records the --profile-use profile and warms the shared rebuild cache with
  // the same ClackRouter -O2 build.
  bool Setup() override {
    warm_cache_ = std::make_shared<knit::BuildCache>();
    KnitcOptions options = Options(kCorpus[kRebuildTarget], warm_cache_);
    StagedBuild staged;
    if (!BuildStaged(ctx_, knit::ClackKnit(), knit::ClackSources(), "ClackRouter", options,
                     staged)) {
      return false;
    }
    const knit::ElaboratedConfig& elaborated = staged.image.linked.compiled.checked.scheduled.elaborated;
    edit_files_.clear();
    std::set<std::string> seen;
    for (const knit::Instance& instance : elaborated.config->instances) {
      for (const std::string& file : instance.unit->files) {
        if (file.size() > 2 && file.ends_with(".c") && seen.insert(file).second) {
          edit_files_.push_back(file);
        }
      }
    }
    const knit::ProfileMeta meta = knit::MakeProfileMeta(elaborated, 2);
    const KnitBuildResult build =
        knit::KnitBuildResultFrom(std::move(staged.image.linked), staged.metrics);

    knit::Machine machine(build.image, RouterCostModel());
    std::unique_ptr<knit::RouterSession> session = OpenSession(ctx_, build, machine);
    if (!session) {
      return false;
    }
    machine.EnableProfiling(0);
    Diagnostics diags;
    const size_t packets = std::min<size_t>(ctx_.trace.size(), 2000);
    Result<void> fed = session->FeedRange(ctx_.trace, 0, packets, diags);
    Result<RouterStats> stats = session->Close(diags);
    if (!fed.ok() || !stats.ok()) {
      ctx_.tally.Fail(1, "profile recording failed: " + diags.ToString());
      return false;
    }
    const std::string document =
        knit::SerializeComponentProfile(stats.value().profile, meta, "ClackRouter");
    Result<knit::LoadedProfile> loaded = knit::ParseComponentProfile(document, diags);
    if (!loaded.ok()) {
      ctx_.tally.Fail(1, "profile round trip failed: " + diags.ToString());
      return false;
    }
    profile_ = std::make_shared<const knit::LoadedProfile>(loaded.take());
    return true;
  }

  // Fingerprints at --jobs=1 from a fresh cache; a cold --jobs=4 build and a
  // rebuild of identical sources on its warm cache must both reproduce them.
  bool References() override {
    reference_.clear();
    for (const CorpusTarget& target : kCorpus) {
      uint64_t fingerprints[3] = {0, 0, 0};
      auto cache = std::make_shared<knit::BuildCache>();
      for (int i = 0; i < 3; ++i) {
        KnitcOptions options =
            Options(target, i == 0 ? std::make_shared<knit::BuildCache>() : cache);
        options.jobs = i == 0 ? 1 : kBuildJobs;
        Diagnostics diags;
        knit::KnitPipeline pipeline(options);
        Result<knit::LinkedImage> built = pipeline.Build(Knit(target), Sources(target),
                                                         target.top, diags);
        if (!built.ok()) {
          ctx_.tally.Fail(1, std::string(target.top) + " reference build failed: " +
                                 diags.ToString());
          return false;
        }
        fingerprints[i] = knit::FingerprintImage(built.value().image);
      }
      ctx_.tally.attempted += 2;
      if (fingerprints[1] != fingerprints[0] || fingerprints[2] != fingerprints[0]) {
        ctx_.tally.Fail(2, Label(target) + ": fingerprint differs between --jobs=1, a cold "
                                          "--jobs=4 build and a warm rebuild");
      }
      reference_.push_back(fingerprints[0]);
    }
    return true;
  }

  double Run(double seconds) override {
    std::vector<double> costs;
    const Clock::time_point start = Clock::now();
    do {
      double pass_seconds = 0;
      long long text_bytes = 0;
      long long image_insns = 0;
      std::map<std::string, long long> passes_removed;
      bool complete = true;
      for (size_t i = 0; i < std::size(kCorpus) && complete; ++i) {
        const CorpusTarget& target = kCorpus[i];
        StagedBuild staged;
        ++ctx_.tally.attempted;
        complete = BuildStaged(ctx_, Knit(target), Sources(target), target.top,
                               Options(target, std::make_shared<knit::BuildCache>()), staged);
        if (!complete) {
          break;
        }
        pass_seconds += staged.seconds;
        const knit::Image& image = staged.image.linked.image;
        text_bytes += image.text_bytes;
        image_insns += knit::ImageInsnCount(image);
        AddImagePasses(staged.image.pass_stats, passes_removed);
        if (knit::FingerprintImage(image) != reference_[i]) {
          ctx_.tally.Fail(1, Label(target) + ": cold build fingerprint differs from --jobs=1");
        }
      }
      if (!complete || !Rebuild()) {
        break;
      }
      costs.push_back(pass_seconds);
      pass_ms_.push_back(pass_seconds * 1e3);
      text_bytes_ = text_bytes;
      image_insns_ = image_insns;
      passes_removed_ = passes_removed;
    } while (SecondsSince(start) < seconds);
    return Median(costs);
  }

  void Report(Metrics& metrics) const override {
    if (pass_ms_.empty()) {
      return;
    }
    Put(metrics, "build_ms", Median(pass_ms_), "ms");
    Put(metrics, "rebuild_ms", Median(rebuild_ms_), "ms");
    Put(metrics, "build_passes", double(pass_ms_.size()), "count");
    Put(metrics, "text_bytes", text_bytes_, "bytes");
  }

  void ReportLayers(Metrics& metrics) override {
    if (pass_ms_.empty()) {
      return;
    }
    PutImageLayers(metrics, image_insns_, passes_removed_);
    PutFrontEndLayers(metrics);
  }

 private:
  static const std::string& Knit(const CorpusTarget& target) {
    return target.oskit ? knit::OskitKnit() : knit::ClackKnit();
  }
  static const SourceMap& Sources(const CorpusTarget& target) {
    return target.oskit ? knit::OskitSources() : knit::ClackSources();
  }
  static std::string Label(const CorpusTarget& target) {
    return std::string(target.top) + " -O" + std::to_string(target.opt_level) +
           (target.profile_use ? " --profile-use" : "");
  }

  KnitcOptions Options(const CorpusTarget& target, std::shared_ptr<knit::BuildCache> cache) const {
    KnitcOptions options;
    options.opt_level = target.opt_level;
    options.jobs = kBuildJobs;
    options.cache = std::move(cache);
    if (target.profile_use) {
      options.profile = profile_;
    }
    return options;
  }

  // ClackRouter -O2 against the warm cache after a comment line is appended
  // to one seeded unit source: one compile, everything else from the cache.
  // A comment changes no code, so the image must match the reference.
  bool Rebuild() {
    SourceMap sources = knit::ClackSources();
    const std::string& file = edit_files_[edit_rng_() % edit_files_.size()];
    sources[file] += "\n/* edit " + std::to_string(edits_++) + " */\n";
    StagedBuild staged;
    ++ctx_.tally.attempted;
    Span rebuild(ctx_.spans, "bench.rebuild");
    if (!BuildStaged(ctx_, knit::ClackKnit(), sources, "ClackRouter",
                     Options(kCorpus[kRebuildTarget], warm_cache_), staged)) {
      return false;
    }
    rebuild_ms_.push_back(staged.seconds * 1e3);
    if (knit::FingerprintImage(staged.image.linked.image) != reference_[kRebuildTarget]) {
      ctx_.tally.Fail(1, "rebuild after editing " + file + ": fingerprint differs");
    }
    return true;
  }

  // The MiniC front end and the flattener alone, over every .c file of both
  // corpora: ParseCFiles per file, then each corpus flattened into one TU with
  // every top-level symbol localized under a per-file prefix.
  void PutFrontEndLayers(Metrics& metrics) {
    long long tokens = 0;
    double parse_seconds = 0;
    double flatten_seconds = 0;
    for (const SourceMap* sources : {&knit::ClackSources(), &knit::OskitSources()}) {
      knit::TypeTable types;
      std::vector<knit::FlattenInput> inputs;
      for (const auto& [file, text] : *sources) {
        if (!file.ends_with(".c")) {
          continue;
        }
        Diagnostics diags;
        Result<std::vector<knit::CToken>> lexed = knit::LexC(*sources, file, diags);
        Span parse(ctx_.spans, "minic.parse");
        Result<knit::TranslationUnit> unit =
            knit::ParseCFiles(*sources, {file}, file, types, diags);
        parse_seconds += parse.End();
        ++ctx_.tally.attempted;
        if (!lexed.ok() || !unit.ok()) {
          ctx_.tally.Fail(1, "MiniC parse of " + file + " failed: " + diags.ToString());
          return;
        }
        tokens += static_cast<long long>(lexed.value().size());
        knit::FlattenInput input;
        input.instance_path = file;
        input.unit = unit.take();
        inputs.push_back(std::move(input));
      }
      Diagnostics diags;
      Span flatten(ctx_.spans, "flatten.flatten");
      for (size_t i = 0; i < inputs.size(); ++i) {
        knit::RenameTranslationUnit(inputs[i].unit, {}, "f" + std::to_string(i) + "_", {});
      }
      Result<knit::TranslationUnit> merged =
          knit::FlattenUnits(std::move(inputs), knit::FlattenOptions(), diags);
      flatten_seconds += flatten.End();
      ++ctx_.tally.attempted;
      if (!merged.ok()) {
        ctx_.tally.Fail(1, "flattening the corpus failed: " + diags.ToString());
        return;
      }
    }
    Put(metrics, "minic.parse_ms", parse_seconds * 1e3, "ms");
    Put(metrics, "minic.tokens_per_s", tokens / parse_seconds, "tokens/s");
    Put(metrics, "flatten.flatten_ms", flatten_seconds * 1e3, "ms");
  }

  Context& ctx_;
  std::mt19937 edit_rng_;
  int edits_ = 0;
  std::shared_ptr<const knit::LoadedProfile> profile_;
  std::shared_ptr<knit::BuildCache> warm_cache_;
  std::vector<std::string> edit_files_;
  std::vector<uint64_t> reference_;  // per kCorpus entry

  std::vector<double> pass_ms_;
  std::vector<double> rebuild_ms_;
  long long text_bytes_ = 0;
  long long image_insns_ = 0;
  std::map<std::string, long long> passes_removed_;
};

// ---- hotswap: a single session hot-swapping a leaf every 25 packets ----------

class HotswapActivity : public Activity {
 public:
  explicit HotswapActivity(Context& ctx) : ctx_(ctx), batch_(ctx.trace) {}

  bool Setup() override {
    episode_.reset();
    KnitcOptions options;
    options.opt_level = 2;
    options.swappable = {"*"};
    StagedBuild staged;
    if (!BuildStaged(ctx_, knit::ClackKnit(), knit::ClackSources(), "ClackRouter", options,
                     staged)) {
      return false;
    }
    image_insns_ = knit::ImageInsnCount(staged.image.linked.image);
    passes_removed_.clear();
    AddImagePasses(staged.image.pass_stats, passes_removed_);
    pristine_ = std::make_unique<KnitBuildResult>(
        knit::KnitBuildResultFrom(std::move(staged.image.linked), staged.metrics));

    // Instances behind binding slots.
    std::set<std::string> slotted;
    for (const knit::BindingSlot& slot : pristine_->image.bindings) {
      slotted.insert(slot.component);
    }
    targets_.clear();
    for (const knit::Instance& instance : pristine_->config.instances) {
      if (slotted.count(instance.path) != 0 && !instance.unit->files.empty()) {
        targets_.push_back(Target{instance.path, instance.unit->files[0]});
      }
    }
    if (targets_.empty()) {
      ctx_.tally.Fail(1, "swappable build has no binding slots");
      return false;
    }
    // Every target is swapped equally often, so the grown image does not
    // depend on where the seeded order happens to stop.
    swaps_ = static_cast<int>(ctx_.trace.size() / kPacketsPerSwap / targets_.size() *
                              targets_.size());
    if (swaps_ == 0) {
      ctx_.tally.Fail(1, "the trace is too short to swap every instance once");
      return false;
    }
    return Open();
  }

  double Run(double seconds) override {
    std::vector<double> costs;
    const Clock::time_point start = Clock::now();
    do {
      if (!episode_ && !Open()) {
        break;
      }
      const double cost = RunEpisode(*episode_);
      episode_.reset();
      if (cost <= 0) {
        break;
      }
      costs.push_back(cost);
    } while (SecondsSince(start) < seconds);
    return Median(costs);
  }

  void Report(Metrics& metrics) const override {
    if (episodes_.empty()) {
      return;
    }
    const EpisodeResult& last = episodes_.back();
    std::vector<double> pps;
    for (const EpisodeResult& episode : episodes_) {
      pps.push_back(episode.pps);
    }
    // Per-episode throughput is bimodal and the share of each mode varies from
    // run to run, so the median flips between the modes; the lower quartile
    // stays in the slow one.
    Put(metrics, "serve_pps", Quantile(pps, 0.25), "pkt/s");
    Put(metrics, "cycles_per_pkt", last.stats.CyclesPerPacket(), "cycles");
    Put(metrics, "stalls_per_pkt", last.stats.StallsPerPacket(), "cycles");
    Put(metrics, "text_bytes", last.stats.text_bytes, "bytes");
    Put(metrics, "swap_pause_ms", Median(pause_ms_), "ms");
    Put(metrics, "swap_pause_p90_ms", Quantile(pause_ms_, 0.9), "ms");
    Put(metrics, "swap_pause_samples", double(pause_ms_.size()), "count");
    Put(metrics, "swap_pause_cycles", last.pause_cycles, "cycles");
  }

  void ReportLayers(Metrics& metrics) override {
    if (episodes_.empty() || request_ms_.empty()) {
      return;
    }
    const EpisodeResult& last = episodes_.back();
    const double request_ms = Mean(request_ms_);
    const double compile_ms = CompileAloneMs();
    Put(metrics, "reconfig.request_ms", request_ms, "ms");
    Put(metrics, "reconfig.compile_ms", compile_ms, "ms");
    Put(metrics, "reconfig.patch_ms", request_ms - compile_ms, "ms");
    Put(metrics, "reconfig.swaps", double(request_ms_.size()), "count");
    Put(metrics, "reconfig.deferred_packets", last.deferred_packets, "pkt");
    Put(metrics, "reconfig.new_functions", last.new_functions, "count");
    Put(metrics, "reconfig.rebound_slots", last.rebound_slots, "count");
    Put(metrics, "reconfig.image_functions", last.image_functions, "count");
    PutImageLayers(metrics, image_insns_, passes_removed_);
    if (metrics.count("vm.insns_per_pkt") == 0) {
      PutSessionLayers(ctx_, *pristine_, metrics);
    }
  }

 private:
  struct Target {
    std::string instance;
    std::string source_name;
  };

  // One episode's fresh copy of the pristine image and everything running it.
  // Declaration order is destruction order in reverse: the engine and the
  // session hold references into the machine, the machine into the image.
  struct Episode {
    std::unique_ptr<KnitBuildResult> build;
    std::unique_ptr<knit::Machine> machine;
    std::unique_ptr<knit::RouterSession> session;
    std::unique_ptr<knit::ReconfigEngine> engine;
  };

  // Per-swap means and end state of one episode (modeled: identical for every
  // episode of a run).
  struct EpisodeResult {
    RouterStats stats;
    double pps = 0;
    double deferred_packets = 0;
    double new_functions = 0;
    double rebound_slots = 0;
    double pause_cycles = 0;
    double image_functions = 0;
  };

  bool Open() {
    Span open(ctx_.spans, "clack.open");
    auto episode = std::make_unique<Episode>();
    episode->build = std::make_unique<KnitBuildResult>(*pristine_);
    episode->machine = std::make_unique<knit::Machine>(episode->build->image, RouterCostModel());
    episode->session = OpenSession(ctx_, *episode->build, *episode->machine);
    if (!episode->session) {
      return false;
    }
    episode->engine = std::make_unique<knit::ReconfigEngine>(*episode->build, *episode->machine,
                                                             knit::ClackSources());
    episode_ = std::move(episode);
    return true;
  }

  // Feeds the trace once with Pump() after every packet and a swap every
  // kPacketsPerSwap packets until swaps_ were issued. Returns host seconds per
  // packet, 0 on failure.
  double RunEpisode(Episode& episode) {
    ctx_.spans.NewRequest();
    const int swaps = swaps_;
    const long long packets = static_cast<long long>(ctx_.trace.size());
    const long long ops = packets + swaps;
    int issued = 0;
    // Each round over the targets takes a new seeded order; every episode
    // replays the same orders.
    std::vector<Target> order = targets_;
    std::mt19937 order_rng(ctx_.seed);
    bool pending = false;
    Clock::time_point pending_since;
    std::vector<double> pauses;
    episode.session->SetPacketHook([&](int seq) {
      if (episode.engine->Pump() > 0 && pending) {
        pauses.push_back(SecondsSince(pending_since) * 1e3);
        pending = false;
      }
      if ((seq + 1) % kPacketsPerSwap != 0 || issued >= swaps) {
        return;
      }
      if (issued % order.size() == 0) {
        std::shuffle(order.begin(), order.end(), order_rng);
      }
      const Target& target = order[issued++ % order.size()];
      knit::SwapSpec spec;
      spec.instance = target.instance;
      spec.source_name = target.source_name;
      spec.source = knit::ClackSources().at(target.source_name);
      const Clock::time_point requested = Clock::now();
      Span request(ctx_.spans, "reconfig.request");
      const knit::SwapReport report = episode.engine->Request(spec);
      const double request_seconds = request.End();
      if (ctx_.spans.enabled()) {
        request_ms_.push_back(request_seconds * 1e3);
      }
      if (report.deferred) {
        pending = true;
        pending_since = requested;
      } else {
        pauses.push_back(request_seconds * 1e3);
      }
    });
    Diagnostics diags;
    Span feed(ctx_.spans, "clack.feed");
    Result<void> fed = episode.session->FeedBatch(batch_.packets.data(), batch_.seqs.data(),
                                                  batch_.packets.size(), diags);
    const double seconds = feed.End();
    episode.session->SetPacketHook(nullptr);
    Result<RouterStats> stats = episode.session->Close(diags);
    ctx_.tally.attempted += ops;
    if (!fed.ok() || !stats.ok()) {
      ctx_.tally.Fail(ops, "hotswap episode failed: " + diags.ToString());
      return 0;
    }
    const std::vector<knit::SwapReport>& reports = episode.engine->reports();
    std::string mismatch = CheckStats(stats.value(), ctx_, /*element_counters=*/false);
    if (issued != swaps || static_cast<int>(reports.size()) != swaps ||
        episode.engine->HasPending()) {
      mismatch += " swaps issued " + std::to_string(issued) + ", finished " +
                  std::to_string(reports.size()) + " of " + std::to_string(swaps);
    }
    EpisodeResult result;
    for (const knit::SwapReport& report : reports) {
      if (!report.ok) {
        mismatch += " swap v" + std::to_string(report.version) + " failed: " + report.error;
      }
      result.deferred_packets += report.deferred_packets;
      result.new_functions += report.new_functions;
      result.rebound_slots += report.rebound_slots;
      result.pause_cycles += static_cast<double>(report.pause_cycles);
    }
    if (!mismatch.empty()) {
      ctx_.tally.Fail(ops, "hotswap:" + mismatch);
    }
    if (!reports.empty()) {
      result.deferred_packets /= reports.size();
      result.new_functions /= reports.size();
      result.rebound_slots /= reports.size();
      result.pause_cycles /= reports.size();
    }
    result.stats = stats.take();
    result.pps = packets / seconds;
    result.image_functions = static_cast<double>(episode.build->image.functions.size());
    episodes_.push_back(std::move(result));
    pause_ms_.insert(pause_ms_.end(), pauses.begin(), pauses.end());
    return seconds / packets;
  }

  // CompileInstanceReplacement alone, once per target, on the pristine image.
  double CompileAloneMs() {
    double seconds = 0;
    for (const Target& target : targets_) {
      Diagnostics diags;
      Span compile(ctx_.spans, "reconfig.compile_replacement");
      Result<knit::ReplacementObject> replacement = knit::CompileInstanceReplacement(
          *pristine_->elaboration, pristine_->config, target.instance,
          knit::ClackSources().at(target.source_name), target.source_name,
          knit::ClackSources(), "__v1", diags);
      seconds += compile.End();
      ++ctx_.tally.attempted;
      if (!replacement.ok()) {
        ctx_.tally.Fail(1, target.instance + " replacement failed to compile: " +
                               diags.ToString());
      }
    }
    return seconds * 1e3 / targets_.size();
  }

  Context& ctx_;
  const TraceBatch batch_;
  std::unique_ptr<KnitBuildResult> pristine_;
  std::vector<Target> targets_;
  int swaps_ = 0;  // per episode
  std::unique_ptr<Episode> episode_;  // opened ahead of the next episode
  long long image_insns_ = 0;
  std::map<std::string, long long> passes_removed_;

  std::vector<EpisodeResult> episodes_;
  std::vector<double> pause_ms_;    // every swap, Request to commit
  std::vector<double> request_ms_;  // traced Request calls only
};

}  // namespace

bool ComputeReferenceHash(Context& ctx) {
  Diagnostics diags;
  KnitcOptions options;
  options.opt_level = 0;
  knit::KnitPipeline pipeline(options);
  Result<knit::RouterProgram> program =
      knit::RouterProgram::FromClack(pipeline, "ClackRouter", diags, RouterCostModel());
  if (!program.ok()) {
    ctx.tally.Fail(1, "-O0 reference build failed: " + diags.ToString());
    return false;
  }
  program.value().machine().set_max_insns(1ll << 62);
  Result<RouterStats> stats = program.value().RunTrace(ctx.trace, diags);
  if (!stats.ok()) {
    ctx.tally.Fail(1, "-O0 reference run failed: " + diags.ToString());
    return false;
  }
  ctx.reference_tx_hash = stats.value().tx_hash;
  return true;
}

void ReportBuildLayers(const Context& ctx, Metrics& metrics) {
  const BuildLayers& layers = ctx.build_layers;
  if (layers.builds == 0) {
    return;
  }
  const SpanLog& spans = ctx.spans;
  Put(metrics, "knitlang.parse_ms", spans.MeanMs("knitlang.parse"), "ms");
  Put(metrics, "knitsem.elaborate_ms", spans.MeanMs("knitsem.elaborate"), "ms");
  Put(metrics, "sched.schedule_ms", spans.MeanMs("sched.schedule"), "ms");
  Put(metrics, "constraints.check_ms", spans.MeanMs("constraints.check"), "ms");
  Put(metrics, "driver.compile_ms", spans.MeanMs("driver.compile"), "ms");
  Put(metrics, "ld.link_ms", spans.MeanMs("ld.link"), "ms");
  Put(metrics, "vm.link_optimize_ms", spans.MeanMs("vm.link_optimize"), "ms");
  Put(metrics, "obj.objcopy_ms", layers.objcopy_seconds * 1e3 / layers.builds, "ms");
  Put(metrics, "driver.builds", layers.builds, "count");
  Put(metrics, "driver.compile_tasks", double(layers.compile_tasks) / layers.builds, "count");
  Put(metrics, "driver.compile_threads", layers.compile_threads, "count");
  Put(metrics, "driver.cache_hits", double(layers.cache_hits) / layers.builds, "count");
  Put(metrics, "driver.cache_misses", double(layers.cache_misses) / layers.builds, "count");
  const long long lookups = layers.cache_hits + layers.cache_misses;
  Put(metrics, "driver.cache_hit_ratio", lookups == 0 ? 0 : double(layers.cache_hits) / lookups,
      "ratio");
}

std::unique_ptr<Activity> MakeFleet(Context& ctx) {
  return std::make_unique<FleetActivity>(ctx);
}
std::unique_ptr<Activity> MakeBuild(Context& ctx) {
  return std::make_unique<BuildActivity>(ctx);
}
std::unique_ptr<Activity> MakeHotswap(Context& ctx) {
  return std::make_unique<HotswapActivity>(ctx);
}

}  // namespace knitbench
