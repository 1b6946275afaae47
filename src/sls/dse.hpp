// Design-space exploration over interface-synthesis parameters.
//
// The flow's main tunables are each thread's TLB geometry (more entries
// cost fabric resources but cut miss/walk traffic), the pager operating
// point (frame budget × replacement policy), the offload mode (SVM or a
// copy-based DMA flow) and the swap I/O operating point. Each is an `Axis`;
// `explore` walks the cross product of a grid of axes, synthesizes one
// image per candidate, checks the resource budget, and (optionally) scores
// candidates by running the elaborated system — the measure-everything
// approach a simulator substrate makes cheap. Scoring fans out over a host
// thread pool; results are bit-identical to the serial sweep.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dma/offload.hpp"
#include "mem/paging/replacement.hpp"
#include "mem/paging/swap_device.hpp"
#include "sls/synthesis.hpp"

namespace vmsls::sls {

/// One dimension of the design space: `size` values, and `apply(i, ...)`
/// sets value `i` on a candidate's copy of the platform, synthesis options
/// and application.
struct Axis {
  std::string name;
  std::size_t size = 0;
  std::function<void(std::size_t, PlatformSpec&, SynthesisOptions&, AppSpec&)> apply;
};

/// One pager operating point: frame budget × replacement policy.
struct PagerCandidate {
  u64 frame_budget = 0;  // 0 = pressure-free (pager inert)
  paging::PolicyKind policy = paging::PolicyKind::kClock;
};

/// One offload operating point: the SVM flow (include_dma = false, virtual
/// addressing) or the copy-based baseline in one of its copy modes
/// (physical addressing, DMA engine + offload driver elaborated).
struct OffloadCandidate {
  bool include_dma = false;
  dma::CopyMode mode = dma::CopyMode::kSgDma;
};

/// One swap I/O operating point: request-queue dispatch policy × swap-in
/// readahead depth.
struct SwapCandidate {
  paging::SwapSchedPolicy sched = paging::SwapSchedPolicy::kFifo;
  unsigned readahead = 0;
};

/// `thread`'s TLB size (ways shrink to keep the geometry legal). Throws
/// std::invalid_argument for a 0-entry value; explore throws
/// std::out_of_range when the app has no such thread.
Axis tlb_axis(const std::string& thread, std::vector<unsigned> entries);
/// The platform's pager operating point.
Axis pager_axis(std::vector<PagerCandidate> points);
/// Offload mode: a DMA point synthesizes `thread` physically addressed with
/// the engine + driver included (the evaluator drives the copy-in/compute/
/// copy-out flow and can read the operating point off the image); an SVM
/// point keeps it virtually addressed.
Axis offload_axis(const std::string& thread, std::vector<OffloadCandidate> points);
/// The swap scheduler's dispatch policy and readahead depth. These are
/// runtime configuration, not fabric: every point has the same resources.
Axis swap_axis(std::vector<SwapCandidate> points);

struct DseCandidate {
  /// This candidate's value index on each axis, in grid order.
  std::vector<std::size_t> point;
  Resources total{};
  double resource_utilization = 0.0;
  bool fits = false;
  bool measured = false;
  Cycles cycles = 0;  // valid when measured
};

struct DseResult {
  std::vector<DseCandidate> candidates;
  /// Index into `candidates` of the chosen point: the fastest fitting
  /// candidate when measured, otherwise the fitting candidate with the most
  /// LUTs (on a TLB axis, the largest fitting TLB — the monotone miss-rate
  /// assumption). First wins ties; -1 if nothing fits.
  int best = -1;
};

class DesignSpaceExplorer {
 public:
  /// Evaluator: builds a simulator, elaborates the image, runs the
  /// workload, and returns the cycle count to minimize.
  ///
  /// Must be safe to call concurrently from several host threads when
  /// exploration is parallel (threads > 1): evaluate only through state
  /// local to the call — elaborate the image onto a fresh Simulator, as
  /// every existing evaluator already does — and the sweep stays
  /// deterministic, because each candidate's simulation is fully isolated.
  using Evaluator = std::function<Cycles(const SystemImage&)>;

  explicit DesignSpaceExplorer(PlatformSpec platform, SynthesisOptions options = {});

  /// Host threads used to score candidates. 1 (the default) evaluates on
  /// the calling thread; N > 1 fans candidates out over a worker pool.
  /// Synthesis itself stays serial (it is microseconds per candidate), and
  /// results — candidate order, every cycle count, and the chosen best
  /// point — are bit-identical to the serial sweep regardless of N.
  void set_threads(unsigned threads) noexcept { threads_ = threads == 0 ? 1 : threads; }
  unsigned threads() const noexcept { return threads_; }

  /// Sweeps the cross product of `grid`, first axis major (grid[0]'s first
  /// value × every point of the other axes comes first). Every candidate is
  /// synthesized on the calling thread before any is scored. An empty grid
  /// is the platform's own operating point; an axis with no values throws
  /// std::invalid_argument.
  DseResult explore(const AppSpec& app, const std::vector<Axis>& grid,
                    const Evaluator& evaluate = nullptr);

  /// Pager operating points × `thread`'s TLB sizes, pager-major.
  DseResult explore_pager_tlb(const AppSpec& app, const std::string& thread,
                              const std::vector<unsigned>& entry_candidates,
                              const std::vector<PagerCandidate>& pager_candidates,
                              const Evaluator& evaluate = nullptr) {
    return explore(app, {pager_axis(pager_candidates), tlb_axis(thread, entry_candidates)},
                   evaluate);
  }

 private:
  void score(std::vector<SystemImage>& images, DseResult& result, const Evaluator& evaluate);
  static void pick_best(DseResult& result);

  PlatformSpec platform_;
  SynthesisOptions options_;
  unsigned threads_ = 1;
};

}  // namespace vmsls::sls
