package checker

import (
	"slices"
	"time"
)

// referenceExplore is the plain sequential stateless DFS the engine's
// determinism suites compare against: one chooser, one loop, and a
// backtrack that flips the deepest decision node with an unexplored
// branch. It shares the execution kernel (runOne) with the engine but
// none of the frontier machinery — no tasks, deques, fold list, or
// replay pinning — so an engine Result that matches it at every worker
// count is the canonical DFS Result. Config.NewScratch gets one shard per
// root-decision branch; checkpoint, resume, progress and FastMode are not
// supported.
func referenceExplore(cfg Config, root func(*Thread)) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	c := cfg.withDefaults()
	res := &Result{}
	start := time.Now()
	d := newDFSChooser(c)
	d.pin = false
	d.stats = &res.Stats
	pool := newExecPool(c)
	defer pool.close()
	branch, scratch := 0, c.newScratch()
	for {
		failed := runOne(c, res, d, root, scratch, pool, res.Executions+1)
		if failed && c.StopAtFirst {
			break
		}
		if c.MaxExecutions > 0 && res.Executions >= c.MaxExecutions {
			break
		}
		if !referenceAdvance(d) {
			res.Exhausted = true
			break
		}
		if len(d.decisions) > 0 && d.decisions[0].chosen != branch {
			branch, scratch = d.decisions[0].chosen, c.newScratch()
		}
	}
	if c.rfSeen != nil {
		res.Stats.RFClasses = int(c.rfSeen.classes.Load())
	}
	res.Elapsed = time.Since(start)
	return res
}

// referenceAdvance moves the chooser to the next leaf of the decision
// tree, reporting false when the space is exhausted. A scheduling node
// records its finished candidate as explored (the sleep set its later
// branches replay) and moves to the first candidate not yet explored.
func referenceAdvance(d *dfsChooser) bool {
	for i := len(d.decisions) - 1; i >= 0; i-- {
		nd := &d.decisions[i]
		if nd.kind == 's' {
			nd.explored = append(nd.explored, nd.cands[nd.chosen])
			next := nextUnexploredSlow(nd.cands, nd.explored)
			if next < 0 {
				continue // node exhausted: pop
			}
			nd.chosen = next
		} else {
			if nd.chosen+1 >= nd.n {
				continue
			}
			nd.chosen++
		}
		d.decisions = d.decisions[:i+1]
		d.depth = 0
		return true
	}
	return false
}

// nextUnexploredSlow returns the index of the first candidate whose
// subtree is not yet explored, or -1.
func nextUnexploredSlow(cands, explored []int) int {
	for j, tid := range cands {
		if !slices.Contains(explored, tid) {
			return j
		}
	}
	return -1
}
