// Package distributed implements the paper's distribution-driven
// source-to-source transformation (§5.6, [7]): a BIP system with
// multiparty interactions becomes a three-layer S/R (send/receive)
// system executed over asynchronous message passing:
//
//  1. the component layer — one node per atomic component, whose
//     multiparty ports are replaced by an offer/reserve/commit protocol
//     (the str/rcv/ack/cmp refinement of Fig. 5.4);
//  2. the interaction-protocol layer — one node per partition block,
//     detecting enabledness of its interactions from received offers and
//     committing them;
//  3. the conflict-resolution layer — a committee-coordination protocol
//     serializing externally-conflicting commits, in three variants:
//     a centralized arbiter, a circulating token ring, and a fully
//     distributed ordered-reservation scheme (the dining-philosophers
//     algorithm).
//
// The committed interaction order is recorded and can be replayed
// through the reference semantics — the executable correctness witness
// of the transformation (experiments E5–E7).
//
// The interaction protocols implement the unprioritized semantics: an
// IP node sees only its own block's interactions, so it cannot tell
// whether a higher-priority interaction elsewhere is enabled. Deploy
// therefore refuses a system with priority rules instead of running
// interactions those rules forbid.
package distributed

import (
	"fmt"
	"sort"

	"bip/internal/core"
	"bip/internal/network"
)

// CRP selects the conflict-resolution protocol.
type CRP int

// The three committee-coordination protocols of §5.6.
const (
	// Centralized uses a single arbiter granting exclusive commit
	// rights FIFO.
	Centralized CRP = iota + 1
	// TokenRing circulates a token among interaction-protocol nodes;
	// only the holder commits externally-conflicting interactions.
	TokenRing
	// Ordered is the fully distributed dining-philosophers scheme:
	// components are reserved in canonical order, so circular waits
	// cannot form.
	Ordered
)

// String names the protocol.
func (c CRP) String() string {
	switch c {
	case Centralized:
		return "centralized"
	case TokenRing:
		return "tokenring"
	case Ordered:
		return "ordered"
	default:
		return "invalid"
	}
}

// Config parameterizes a deployment.
type Config struct {
	// CRP selects the conflict-resolution protocol (default Ordered).
	CRP CRP
	// Partition groups interaction names into blocks, one
	// interaction-protocol node per block. Unlisted interactions form
	// one extra block each. A nil partition puts every interaction in
	// its own block (maximal distribution).
	Partition [][]string
	// Seed drives the deterministic network jitter.
	Seed int64
	// MaxCommits stops the run after that many committed interactions
	// (0 = 1000).
	MaxCommits int
	// MaxMessages is the safety cap on network traffic (0 = 1<<20).
	MaxMessages int
}

// Stats reports a deployment run.
type Stats struct {
	Commits  int
	Labels   []string
	Messages int
	Aborts   int
	// MsgPerCommit is the headline cost metric of experiment E7.
	MsgPerCommit float64
}

// Deploy builds the three-layer system for sys. A system with priority
// rules is refused (see the package doc).
func Deploy(sys *core.System, cfg Config) (*Deployment, error) {
	if len(sys.Priorities) > 0 {
		return nil, fmt.Errorf("distributed: system %s: priority %s cannot be deployed: the interaction protocols implement the unprioritized semantics",
			sys.Name, sys.Priorities[0])
	}
	if cfg.CRP == 0 {
		cfg.CRP = Ordered
	}
	if cfg.MaxCommits <= 0 {
		cfg.MaxCommits = 1000
	}
	if cfg.MaxMessages <= 0 {
		cfg.MaxMessages = 1 << 20
	}
	blocks, err := partitionBlocks(sys, cfg.Partition)
	if err != nil {
		return nil, err
	}
	d := &Deployment{sys: sys, cfg: cfg, blocks: blocks}
	return d, nil
}

// partitionBlocks validates and completes the partition.
func partitionBlocks(sys *core.System, part [][]string) ([][]int, error) {
	assigned := make(map[int]bool)
	var blocks [][]int
	for _, names := range part {
		var block []int
		for _, n := range names {
			ii := sys.InteractionIndex(n)
			if ii < 0 {
				return nil, fmt.Errorf("distributed: partition references unknown interaction %q", n)
			}
			if assigned[ii] {
				return nil, fmt.Errorf("distributed: interaction %q in two blocks", n)
			}
			assigned[ii] = true
			block = append(block, ii)
		}
		if len(block) > 0 {
			blocks = append(blocks, block)
		}
	}
	for ii := range sys.Interactions {
		if !assigned[ii] {
			blocks = append(blocks, []int{ii})
		}
	}
	return blocks, nil
}

// Deployment is a transformed system ready to run.
type Deployment struct {
	sys    *core.System
	cfg    Config
	blocks [][]int
}

// Blocks returns the interaction partition (indices into
// sys.Interactions), mainly for inspection and tests.
func (d *Deployment) Blocks() [][]int { return d.blocks }

// Run executes the deployment on a fresh simulator and returns its
// statistics.
func (d *Deployment) Run() (*Stats, error) {
	sim := network.NewSim(d.cfg.Seed)
	obs := &observer{max: d.cfg.MaxCommits}

	// Which components are shared across blocks (externally
	// conflicting)? A component used by interactions in two different
	// blocks needs cross-block coordination.
	blockOf := make(map[int]int) // interaction -> block
	for bi, block := range d.blocks {
		for _, ii := range block {
			blockOf[ii] = bi
		}
	}
	compBlocks := make(map[string]map[int]bool)
	for ii, in := range d.sys.Interactions {
		for _, pr := range in.Ports {
			if compBlocks[pr.Comp] == nil {
				compBlocks[pr.Comp] = make(map[int]bool)
			}
			compBlocks[pr.Comp][blockOf[ii]] = true
		}
	}

	// Component layer.
	for _, atom := range d.sys.Atoms {
		var ips []network.NodeID
		for bi := range compBlocks[atom.Name] {
			ips = append(ips, ipID(bi))
		}
		sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
		if err := sim.AddNode(compID(atom.Name), newCompNode(atom, ips)); err != nil {
			return nil, err
		}
	}

	// Interaction-protocol layer.
	nBlocks := len(d.blocks)
	for bi, block := range d.blocks {
		node := newIPNode(d.sys, bi, block, compBlocks, d.cfg.CRP, nBlocks)
		if err := sim.AddNode(ipID(bi), node); err != nil {
			return nil, err
		}
	}

	// Conflict-resolution layer. The token ring is peer-to-peer (the
	// token starts parked at block 0) and Ordered is fully distributed,
	// so only the centralized protocol adds a coordinator node.
	switch d.cfg.CRP {
	case Centralized:
		if err := sim.AddNode(arbiterID, newArbiter()); err != nil {
			return nil, err
		}
	case TokenRing, Ordered:
	default:
		return nil, fmt.Errorf("distributed: unknown CRP %d", d.cfg.CRP)
	}

	if err := sim.AddNode(observerID, obs); err != nil {
		return nil, err
	}

	err := sim.Run(d.cfg.MaxMessages)
	stats := &Stats{
		Commits:  len(obs.labels),
		Labels:   obs.labels,
		Messages: sim.Delivered(),
		Aborts:   obs.aborts,
	}
	if stats.Commits > 0 {
		stats.MsgPerCommit = float64(stats.Messages) / float64(stats.Commits)
	}
	if err != nil && !obs.done {
		return stats, fmt.Errorf("distributed: %w", err)
	}
	return stats, nil
}

// ReplayLabels validates a committed label sequence against the
// reference semantics of a deployable (priority-free) system: each label
// must correspond to an enabled move when replayed in order. A label
// may name several enabled moves that lead to different states, so the
// replay tracks every state reachable along the labels so far,
// deduplicated by binary key, and fails only at a label that none of
// them enables. It returns the number of steps replayed.
func ReplayLabels(sys *core.System, labels []string) (int, error) {
	cur := []core.State{sys.Initial()}
	seen := map[string]bool{}
	var key []byte
	for i, lab := range labels {
		var next []core.State
		clear(seen)
		for _, st := range cur {
			moves, err := sys.EnabledRaw(st)
			if err != nil {
				return i, fmt.Errorf("distributed: replay step %d: %w", i, err)
			}
			for _, m := range moves {
				if sys.Label(m) != lab {
					continue
				}
				succ, err := sys.Exec(st, m)
				if err != nil {
					return i, fmt.Errorf("distributed: replay step %d: %w", i, err)
				}
				if key = sys.AppendBinaryKey(key[:0], succ); !seen[string(key)] {
					seen[string(key)] = true
					next = append(next, succ)
				}
			}
		}
		if len(next) == 0 {
			return i, fmt.Errorf("distributed: replay step %d: %q not enabled", i, lab)
		}
		cur = next
	}
	return len(labels), nil
}

// Node identifiers.
const (
	arbiterID  network.NodeID = "crp/arbiter"
	observerID network.NodeID = "observer"
)

func compID(name string) network.NodeID { return network.NodeID("comp/" + name) }
func ipID(block int) network.NodeID     { return network.NodeID(fmt.Sprintf("ip/%d", block)) }

// observer records committed interactions in arrival order (commit
// notifications travel on the zero-delay channel, so arrival order is
// the linearization order).
type observer struct {
	labels []string
	aborts int
	max    int
	done   bool
}

func (o *observer) Init(network.Context) {}

func (o *observer) Recv(ctx network.Context, _ network.NodeID, msg any) {
	switch m := msg.(type) {
	case committedMsg:
		o.labels = append(o.labels, m.Label)
		if len(o.labels) >= o.max {
			o.done = true
			ctx.Stop()
		}
	case abortedMsg:
		o.aborts++
	}
}
