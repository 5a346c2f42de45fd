// Package dataflow implements a generic forward worklist solver over
// the control-flow graphs of internal/analysis/cfg, plus the one
// instantiation the tableseglint analyzers are built from: a
// configurable taint-propagation lattice with per-source provenance
// masks (rngflow's RNG provenance, probflow's probability tracking,
// aliasflow's input-aliasing tracking).
//
// Everything here is intra-procedural and stdlib-only (go/ast,
// go/types), matching the rest of the suite. Function literals are
// opaque to a graph — cfg.New never descends into them — so taint
// facts never cross a closure boundary; analyzers that care analyze
// each literal body as its own unit.
//
// Facts are per-block: Solve computes the fixpoint of In/Out facts,
// and the taint layer replays a block's nodes in order to answer
// statement-granular queries deterministically.
package dataflow

import (
	"tableseg/internal/analysis/cfg"
)

// Problem describes one monotone dataflow problem with facts of type F.
// Transfer and Merge must be monotone over the fact lattice and Merge
// must be commutative; the worklist iteration then terminates at the
// unique least fixpoint for lattices of finite height.
type Problem[F any] struct {
	// Boundary returns the fact entering the graph's Entry block.
	Boundary func() F
	// Init returns the initial ("bottom") fact for every other block.
	Init func() F
	// Merge joins the fact src flowing in from one edge into dst and
	// returns the combined fact. It may mutate and return dst.
	Merge func(dst, src F) F
	// Equal reports whether two facts are equal (fixpoint detection).
	Equal func(a, b F) bool
	// Transfer maps a block's input fact to its output fact. It must
	// not retain or mutate in after returning.
	Transfer func(b *cfg.Block, in F) F
}

// Result holds the per-block fixpoint facts, indexed by Block.Index.
// In[b] is the fact at block entry and Out[b] at block exit.
type Result[F any] struct {
	In, Out []F
}

// Solve runs the worklist algorithm to fixpoint. Blocks are seeded and
// re-queued in index (≈ source) order, so iteration — and therefore
// any diagnostic order derived from it — is deterministic for a given
// graph.
func Solve[F any](g *cfg.Graph, p Problem[F]) Result[F] {
	n := len(g.Blocks)
	res := Result[F]{In: make([]F, n), Out: make([]F, n)}

	preds := predecessors(g)
	for _, b := range g.Blocks {
		if b == g.Entry {
			res.In[b.Index] = p.Boundary()
		} else {
			res.In[b.Index] = p.Init()
		}
		res.Out[b.Index] = p.Transfer(b, res.In[b.Index])
	}

	// FIFO worklist with membership dedupe, seeded in index order.
	queue := make([]*cfg.Block, 0, n)
	queued := make([]bool, n)
	for _, b := range g.Blocks {
		queue = append(queue, b)
		queued[b.Index] = true
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b.Index] = false

		in := res.In[b.Index]
		if b != g.Entry {
			in = p.Init()
			for _, e := range preds[b.Index] {
				in = p.Merge(in, res.Out[e.Index])
			}
			res.In[b.Index] = in
		}
		out := p.Transfer(b, in)
		if p.Equal(out, res.Out[b.Index]) {
			continue
		}
		res.Out[b.Index] = out
		// Requeue everything this block feeds.
		for _, s := range b.Succs {
			if !queued[s.Index] {
				queue = append(queue, s)
				queued[s.Index] = true
			}
		}
	}
	return res
}

// predecessors inverts the successor edges of g.
func predecessors(g *cfg.Graph) [][]*cfg.Block {
	preds := make([][]*cfg.Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}
	return preds
}
