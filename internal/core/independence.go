package core

import "bip/internal/expr"

// This file computes the static independence structure partial-order
// reduction (internal/lts ample expander) is built on. Everything here
// derives from indices Validate already resolves — portAtoms, incident,
// the priority rules — so the computation is a cheap closing pass over
// the glue, done once per Validate.
//
// Two interactions commute when firing one cannot change whether, or
// with what effect, the other fires. In BIP the connector structure
// hands this relation over almost for free:
//
//   - An interaction reads and writes only its participants: its guard
//     and action are validated to range over variables exported by its
//     own ports, and firing it moves only its participants' locations.
//     Interactions with disjoint participant sets therefore commute at
//     the behavior level.
//
//   - Priorities re-entangle them: a rule Low < High when When makes
//     Low's enabledness depend on High's participants (and on whatever
//     When reads), regardless of port structure. Rather than chase that
//     dependency precisely, an interaction that appears in any rule —
//     or whose participants' variables some rule's When reads — is
//     marked priority-entangled and excluded from reduction.
//
// The unit of reduction is the cluster: a connected component of the
// atom graph where two atoms are adjacent when they share an
// interaction. Every interaction lies entirely inside one cluster, so
// the enabled moves of a cluster's interactions form a persistent set
// (condition C1 of the ample-set method): no interaction outside the
// cluster touches a cluster atom's location or variables, and — for
// reducible clusters — no priority links them either, so firing
// non-cluster interactions can never enable, disable or alter a
// cluster move.
type independence struct {
	// prioEntangled[i]: interaction i appears in a priority rule (as Low
	// or High), or some rule's When condition reads a variable of one of
	// i's participants.
	prioEntangled []bool
	// atomCluster[a] / interCluster[i]: dense cluster index per atom and
	// per interaction. Clusters are numbered in order of their smallest
	// atom index, so the numbering is deterministic for a given model.
	atomCluster  []int32
	interCluster []int32
	numClusters  int
	// clusterReducible[c]: no interaction of cluster c is
	// priority-entangled. Only reducible clusters may serve as ample
	// sets; the others stay fully interleaved.
	clusterReducible []bool
}

// computeIndependence runs at the end of Validate, after portAtoms,
// incident and higher are resolved.
func (s *System) computeIndependence() {
	ind := &independence{
		prioEntangled: make([]bool, len(s.Interactions)),
		atomCluster:   make([]int32, len(s.Atoms)),
		interCluster:  make([]int32, len(s.Interactions)),
	}

	// Priority entanglement. Rules are stored pre-resolved in higher
	// (indexed by Low); Priorities still carries the High names and When
	// conditions in declaration form.
	whenReads := make([]bool, len(s.Atoms)) // atoms some When reads
	for lo, rules := range s.higher {
		if len(rules) == 0 {
			continue
		}
		ind.prioEntangled[lo] = true
		for _, r := range rules {
			ind.prioEntangled[r.High] = true
		}
	}
	for _, p := range s.Priorities {
		for _, v := range expr.Vars(p.When) {
			ai, _, err := s.splitQualified(v)
			if err == nil {
				whenReads[ai] = true
			}
		}
	}
	for i, pa := range s.portAtoms {
		for _, ai := range pa {
			if whenReads[ai] {
				ind.prioEntangled[i] = true
			}
		}
	}

	// Clusters: union-find over atoms, merging across each interaction.
	parent := make([]int, len(s.Atoms))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, pa := range s.portAtoms {
		for _, ai := range pa[1:] {
			ra, rb := find(pa[0]), find(ai)
			if ra != rb {
				if rb < ra {
					ra, rb = rb, ra
				}
				parent[rb] = ra
			}
		}
	}
	// Dense numbering in order of smallest member atom: roots are their
	// own minima after path compression toward the smaller index.
	clusterOf := make(map[int]int32, len(s.Atoms))
	for ai := range s.Atoms {
		r := find(ai)
		ci, ok := clusterOf[r]
		if !ok {
			ci = int32(ind.numClusters)
			ind.numClusters++
			clusterOf[r] = ci
		}
		ind.atomCluster[ai] = ci
	}
	ind.clusterReducible = make([]bool, ind.numClusters)
	for i := range ind.clusterReducible {
		ind.clusterReducible[i] = true
	}
	for i, pa := range s.portAtoms {
		ci := ind.atomCluster[pa[0]]
		ind.interCluster[i] = ci
		if ind.prioEntangled[i] {
			ind.clusterReducible[ci] = false
		}
	}
	s.indep = ind
}

// PriorityEntangled reports whether interaction ii participates in the
// priority layer: it appears as Low or High in some rule, or a rule's
// When condition reads a variable of one of its participants. Entangled
// interactions are never pruned by reduction.
func (s *System) PriorityEntangled(ii int) bool { return s.indep.prioEntangled[ii] }

// NumClusters returns the number of connector clusters: connected
// components of atoms under the shares-an-interaction relation.
func (s *System) NumClusters() int { return s.indep.numClusters }

// AtomCluster returns the cluster index of atom ai.
func (s *System) AtomCluster(ai int) int { return int(s.indep.atomCluster[ai]) }

// InteractionCluster returns the cluster index interaction ii belongs
// to (all its participants are in that cluster).
func (s *System) InteractionCluster(ii int) int { return int(s.indep.interCluster[ii]) }

// ClusterReducible reports whether cluster ci may serve as an ample
// set: none of its interactions is priority-entangled. The enabled
// moves of a reducible cluster form a persistent set in every state.
func (s *System) ClusterReducible(ci int) bool { return s.indep.clusterReducible[ci] }
