#include "engine/tetris.h"

#include <algorithm>
#include <cassert>

#include "engine/proof_log.h"
#include "geometry/resolution.h"

namespace tetris {

Tetris::Tetris(const BoxOracle* oracle, const SplitSpace* space,
               TetrisOptions options)
    : oracle_(oracle),
      space_(space),
      options_(std::move(options)),
      kb_(space->dims()) {
  sao_ = options_.sao;
  if (sao_.empty()) {
    sao_.resize(space_->dims());
    for (size_t i = 0; i < sao_.size(); ++i) sao_[i] = static_cast<int>(i);
  }
  assert(static_cast<int>(sao_.size()) == space_->dims());
}

DyadicBox Tetris::ToOriginalOrder(const DyadicBox& engine) const {
  DyadicBox b = DyadicBox::Universal(space_->dims());
  for (int j = 0; j < space_->dims(); ++j) b[sao_[j]] = engine[j];
  b.set_output_derived(engine.output_derived());
  return b;
}

bool Tetris::InsertKb(const DyadicBox& engine_box) {
  if (kb_.Insert(engine_box)) {
    ++stats_.kb_inserts;
    return true;
  }
  return false;
}

void Tetris::ToEngineOrder(const DyadicBox& gap, DyadicBox* eng) const {
  for (int j = 0; j < eng->dims(); ++j) (*eng)[j] = gap[sao_[j]];
  eng->set_output_derived(gap.output_derived());
}

void Tetris::LoadGap(const DyadicBox& gap, DyadicBox* eng) {
  ToEngineOrder(gap, eng);
  if (InsertKb(*eng)) {
    ++stats_.boxes_loaded;
    if (options_.proof_log) options_.proof_log->AddAxiom(*eng);
  }
}

bool Tetris::LoadProbeGaps(const DyadicBox& b, DyadicBox* w) {
  bool any = false;
  bool witness_found = false;
  DyadicBox eng = DyadicBox::Universal(b.dims());
  oracle_->Probe(ToOriginalOrder(b), [&](const DyadicBox& g) {
    any = true;
    LoadGap(g, &eng);
    if (eng.Contains(b)) {
      *w = eng;
      witness_found = true;
    }
  });
  assert((!any || witness_found) &&
         "oracle must return a gap containing the probe");
  (void)witness_found;
  return any;
}

bool Tetris::SettleUnitBox(const DyadicBox& b, DyadicBox* w) {
  // Preloaded, A ⊇ B: nothing in B can cover the point, so B is not asked.
  if (options_.init == TetrisOptions::Init::kReloaded && LoadProbeGaps(b, w)) {
    if (options_.load_budget >= 0 &&
        stats_.boxes_loaded > options_.load_budget) {
      status_ = RunStatus::kBudgetExceeded;
      return false;
    }
    return true;
  }
  ++stats_.outputs;
  if (!(*sink_)(ToOriginalOrder(b))) {
    status_ = RunStatus::kStoppedBySink;
    return false;
  }
  *w = b;
  w->set_output_derived(true);
  if (options_.proof_log) options_.proof_log->AddOutput(*w);
  return true;
}

bool Tetris::Skeleton(DyadicBox* b, DyadicBox* w) {
  ++stats_.skeleton_nodes;
  // Components before the split dimension are units this whole subtree
  // shares, so the lookup starts there (at the last level for a point);
  // the cursor holds the walk over the components before it.
  const int split_dim = space_->FirstThickDim(*b);
  const int level = split_dim >= 0 ? split_dim : std::max(b->dims() - 1, 0);
  // Lines 1-2: a box of A covers b; the lookup writes it into w.
  const bool hit = kb_.FindContaining(*b, level, &cursor_, w,
                                      &stats_.kb_nodes_visited);
#ifndef NDEBUG
  {
    // The cursor must find the root walk's box (provenance included).
    DyadicBox ref = DyadicBox::Universal(b->dims());
    const bool ref_hit = kb_.FindContaining(*b, &ref);
    assert(ref_hit == hit && (!hit || (ref == *w && ref.output_derived() ==
                                                        w->output_derived())));
  }
#endif
  if (hit) return true;
  // Lines 3-4: b is a point not covered by A; settle it here.
  if (split_dim < 0) return SettleUnitBox(*b, w);
  // Line 6: split on the first thick dimension, in place, through the
  // cursor. b is restored after each child returns, before anything else
  // reads it.
  const DyadicInterval whole = (*b)[split_dim];
  cursor_.Write(b, split_dim, whole.Child(0));
  bool covered = Skeleton(b, w);  // the first witness goes straight to w
  cursor_.Write(b, split_dim, whole);
  if (!covered) return false;
  if (w->Contains(*b)) return true;  // line 11

  DyadicBox w2 = DyadicBox::Universal(b->dims());
  cursor_.Write(b, split_dim, whole.Child(1));
  covered = Skeleton(b, &w2);  // backtracking
  cursor_.Write(b, split_dim, whole);
  if (!covered || w2.Contains(*b)) {  // line 16
    *w = w2;
    return covered;
  }

  // Line 18: geometric resolution of the two witnesses, written over the
  // first one. Lemma C.1 guarantees the ordered shape, so this cannot
  // fail. A proof log keeps the first premise, so it is copied first.
  ++stats_.resolutions;
  if (w->output_derived() || w2.output_derived()) {
    ++stats_.output_resolutions;
  } else {
    ++stats_.gap_resolutions;
  }
  int pivot;
  if (options_.proof_log) {
    const DyadicBox w1 = *w;
    pivot = OrderedResolveInto(w1, w2, w);
    options_.proof_log->AddStep(w1, w2, *w, pivot);
  } else {
    pivot = OrderedResolveInto(*w, w2, w);
  }
  assert(pivot >= 0 && "Lemma C.1 violated: resolution must apply");
  (void)pivot;
  // Line 19. A resolvent equal to b could only answer a lookup inside b,
  // and the depth-first search never enters b again, so it is not cached.
  if (options_.cache_resolvents && *w != *b) InsertKb(*w);
  return true;
}

RunStatus Tetris::Run(const OutputSink& sink) {
  // Initialize(A) — line 1 of Algorithm 2: each gap box of B is staged
  // in A as the oracle emits it, permuted into one reused engine-order
  // box, and A inserts the staged boxes in one bulk pass. The fresh ones
  // are the axioms, in the oracle's order.
  if (options_.init == TetrisOptions::Init::kPreloaded) {
    DyadicBox eng = DyadicBox::Universal(space_->dims());
    const bool ok = oracle_->EnumerateAll([&](const DyadicBox& g) {
      ToEngineOrder(g, &eng);
      kb_.Stage(eng);
    });
    assert(ok && "preloaded mode requires an enumerable oracle");
    (void)ok;
    const size_t fresh = kb_.InsertStaged();
    stats_.kb_inserts += static_cast<int64_t>(fresh);
    stats_.boxes_loaded += static_cast<int64_t>(fresh);
    if (options_.proof_log) {
      for (size_t id = kb_.size() - fresh; id < kb_.size(); ++id) {
        options_.proof_log->AddAxiom(kb_.Box(id));
      }
    }
  }

  // The working box the skeleton splits in place and the slot it writes
  // its witness into. One call settles every point of the space.
  DyadicBox box = DyadicBox::Universal(space_->dims());
  DyadicBox w = box;
  sink_ = &sink;
  status_ = RunStatus::kCompleted;
  cursor_.Reset();
  const bool covered = Skeleton(&box, &w);
  assert(covered == (status_ == RunStatus::kCompleted) &&
         "the skeleton returns false only on an abort");
  (void)covered;
  // A only grows within a run, so its final footprint is its peak.
  const int64_t kb_bytes = static_cast<int64_t>(kb_.MemoryBytes());
  if (kb_bytes > stats_.kb_peak_bytes) stats_.kb_peak_bytes = kb_bytes;
  return status_;
}

bool IsFullyCovered(const BoxOracle& oracle, const SplitSpace& space,
                    TetrisOptions options, TetrisStats* stats) {
  Tetris engine(&oracle, &space, std::move(options));
  RunStatus status = engine.Run([](const DyadicBox&) { return false; });
  if (stats) *stats = engine.stats();
  // Completed without ever producing an uncovered point == fully covered.
  return status == RunStatus::kCompleted;
}

}  // namespace tetris
