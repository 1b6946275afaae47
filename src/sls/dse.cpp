#include "sls/dse.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace vmsls::sls {

namespace {

/// `app`'s thread named `name`; throws std::out_of_range for unknown names.
ThreadSpec& thread_of(AppSpec& app, const std::string& name) {
  return const_cast<ThreadSpec&>(std::as_const(app).thread(name));
}

}  // namespace

Axis tlb_axis(const std::string& thread, std::vector<unsigned> entries) {
  for (unsigned e : entries)
    require(e > 0, "TLB axis for thread '" + thread + "': 0 entries is not a TLB");
  const std::size_t size = entries.size();
  return {"tlb", size,
          [thread, entries = std::move(entries)](std::size_t i, PlatformSpec& plat,
                                                 SynthesisOptions&, AppSpec& app) {
            ThreadSpec& t = thread_of(app, thread);
            mem::TlbConfig tlb = t.tlb_override.value_or(plat.default_tlb);
            tlb.entries = entries[i];
            tlb.ways = std::min(tlb.ways, tlb.entries);
            while (tlb.entries % tlb.ways != 0) tlb.ways /= 2;  // keep geometry legal
            t.tlb_override = tlb;
          }};
}

Axis pager_axis(std::vector<PagerCandidate> points) {
  const std::size_t size = points.size();
  return {"pager", size,
          [points = std::move(points)](std::size_t i, PlatformSpec& plat, SynthesisOptions&,
                                       AppSpec&) {
            plat.pager.frame_budget = points[i].frame_budget;
            plat.pager.policy = points[i].policy;
          }};
}

Axis offload_axis(const std::string& thread, std::vector<OffloadCandidate> points) {
  const std::size_t size = points.size();
  return {"offload", size,
          [thread, points = std::move(points)](std::size_t i, PlatformSpec& plat,
                                               SynthesisOptions& opts, AppSpec& app) {
            thread_of(app, thread).addressing =
                points[i].include_dma ? Addressing::kPhysical : Addressing::kVirtual;
            opts.include_dma = points[i].include_dma;
            plat.offload.mode = points[i].mode;
          }};
}

Axis swap_axis(std::vector<SwapCandidate> points) {
  const std::size_t size = points.size();
  return {"swap", size,
          [points = std::move(points)](std::size_t i, PlatformSpec& plat, SynthesisOptions&,
                                       AppSpec&) {
            plat.pager.swap.sched = points[i].sched;
            plat.pager.swap.readahead = points[i].readahead;
          }};
}

DesignSpaceExplorer::DesignSpaceExplorer(PlatformSpec platform, SynthesisOptions options)
    : platform_(std::move(platform)), options_(options) {
  // Infeasible candidates are data points, not errors, during exploration.
  options_.strict_budget = false;
}

DseResult DesignSpaceExplorer::explore(const AppSpec& app, const std::vector<Axis>& grid,
                                       const Evaluator& evaluate) {
  std::size_t total = 1;
  for (const Axis& axis : grid) {
    require(axis.size > 0, "DSE axis '" + axis.name + "' has no values");
    total *= axis.size;
  }

  // Phase 1 (serial): synthesize every grid point. This is host-microseconds
  // per point; keeping it on one thread keeps SynthesisFlow single-threaded.
  DseResult result;
  std::vector<SystemImage> images;
  images.reserve(total);
  std::vector<std::size_t> point(grid.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    PlatformSpec plat = platform_;
    SynthesisOptions opts = options_;
    AppSpec variant = app;
    for (std::size_t a = 0; a < grid.size(); ++a) grid[a].apply(point[a], plat, opts, variant);
    images.push_back(SynthesisFlow(plat, opts).synthesize(variant));
    const SynthesisReport& report = images.back().report();
    result.candidates.push_back(
        {.point = point, .total = report.total, .resource_utilization = report.utilization,
         .fits = report.fits_budget});

    // Next point, last axis fastest.
    for (std::size_t a = grid.size(); a-- > 0;) {
      if (++point[a] < grid[a].size) break;
      point[a] = 0;
    }
  }

  score(images, result, evaluate);
  pick_best(result);
  return result;
}

void DesignSpaceExplorer::pick_best(DseResult& result) {
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const auto& c = result.candidates[i];
    if (!c.fits) continue;
    if (result.best < 0) {
      result.best = static_cast<int>(i);
      continue;
    }
    const auto& b = result.candidates[static_cast<std::size_t>(result.best)];
    const bool better = c.measured ? (c.cycles < b.cycles) : (c.total.luts > b.total.luts);
    if (better) result.best = static_cast<int>(i);
  }
}

// Phase 2 (parallel): score the fitting candidates. Every candidate
// elaborates onto its own Simulator inside `evaluate`, so workers share
// nothing; each writes only its own slot, and the result vector is
// byte-identical to the serial sweep whatever the thread count.
void DesignSpaceExplorer::score(std::vector<SystemImage>& images, DseResult& result,
                                const Evaluator& evaluate) {
  if (!evaluate) return;
  std::vector<std::size_t> work;
  for (std::size_t i = 0; i < result.candidates.size(); ++i)
    if (result.candidates[i].fits) work.push_back(i);

  parallel_for(threads_, work.size(), [&](std::size_t j) {
    const std::size_t i = work[j];
    result.candidates[i].cycles = evaluate(images[i]);
    result.candidates[i].measured = true;
  });
}

}  // namespace vmsls::sls
