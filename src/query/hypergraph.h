// Query hypergraphs and the structural measures the paper's theorems
// condition on (paper, Appendix A and Definition E.5).
//
//   * GYO elimination      — α-acyclicity test + elimination order; its
//                            reverse is the SAO that makes Tetris-Preloaded
//                            match Yannakakis (Theorem D.8).
//   * induced width        — Definition E.5; the minimum over orders equals
//                            treewidth; the minimizing order (reversed) is
//                            the SAO of Theorems 4.7 / 4.9.
//   * fractional covers    — ρ*(bag) via LP; AGM bound (Appendix A.1);
//                            fhtw as the minimum over elimination-order
//                            tree decompositions of the max bag ρ*.
//
// Exact subset DP is used for widths; queries have O(1) attributes
// (data-complexity setting), so 2^n states are fine for n <= ~20.
#ifndef TETRIS_QUERY_HYPERGRAPH_H_
#define TETRIS_QUERY_HYPERGRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tetris {

/// A hypergraph over vertices [0, n).
class Hypergraph {
 public:
  Hypergraph(int num_vertices, std::vector<std::vector<int>> edges);

  int num_vertices() const { return n_; }
  const std::vector<std::vector<int>>& edges() const { return edges_; }

  /// Runs GYO elimination. Returns true iff α-acyclic; on success `order`
  /// (if non-null) receives the vertex elimination order (first removed
  /// first).
  bool GyoEliminationOrder(std::vector<int>* order) const;

  bool IsAlphaAcyclic() const { return GyoEliminationOrder(nullptr); }

  /// β-acyclicity (Definition A.3): every subset of hyperedges is
  /// α-acyclic. The paper's §5.2 shows that even β-acyclic queries with
  /// arity-3 relations cannot have O~(|C| + Z) box-certificate algorithms
  /// (under the 3SUM conjecture). Exponential in the edge count; requires
  /// edges().size() <= 20.
  bool IsBetaAcyclic() const;

  /// Induced width of an *elimination* order (first eliminated first),
  /// per Definition E.5 (the SAO of the paper is the reverse).
  int InducedWidth(const std::vector<int>& elim_order) const;

  /// Exact treewidth via DP over subsets; fills `elim_order` (if non-null)
  /// with an optimal elimination order. Requires num_vertices <= 20.
  int Treewidth(std::vector<int>* elim_order = nullptr) const;

  /// Fractional edge cover number ρ* of the sub-hypergraph induced by
  /// `vertex_mask` (edges are intersected with the mask). Returns -1 if a
  /// vertex in the mask is uncoverable.
  double FractionalCoverNumber(uint32_t vertex_mask) const;

  /// ρ* of the whole hypergraph.
  double FractionalCoverNumber() const {
    return FractionalCoverNumber((n_ >= 32 ? ~uint32_t{0}
                                           : (uint32_t{1} << n_) - 1));
  }

  /// log2 of the AGM bound for per-edge sizes |R_e| = 2^log2_sizes[e]
  /// (Appendix A.1: minimize Σ x_e log2|R_e| subject to fractional cover).
  double AgmBoundLog2(const std::vector<double>& log2_sizes) const;

  /// Fractional hypertree width over elimination-order tree
  /// decompositions, with an optimal elimination order in `elim_order`.
  /// Requires num_vertices <= 20.
  double FractionalHypertreeWidth(std::vector<int>* elim_order = nullptr)
      const;

 private:
  // The clique created when eliminating `v` after the vertices in
  // `eliminated_mask`: neighbors of v in the primal graph, plus vertices
  // reachable from v through eliminated vertices.
  uint32_t EliminationClique(int v, uint32_t eliminated_mask) const;

  int n_;
  std::vector<std::vector<int>> edges_;
  std::vector<uint32_t> edge_masks_;
  std::vector<uint32_t> adjacency_;  // primal-graph adjacency masks
};

}  // namespace tetris

#endif  // TETRIS_QUERY_HYPERGRAPH_H_
