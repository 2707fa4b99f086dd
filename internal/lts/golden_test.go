package lts

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"bip/internal/core"
	"bip/models"
)

// TestDeterministicStreamGolden pins the deterministic event stream
// bit for bit: for each run it digests every event the sink sees —
// OnState's id, the state's binary key and its Discovery edge, OnEdge,
// OnExpanded's move count and Done's truncation flag — together with
// the final Stats counters, and compares against digests recorded from
// the reference implementation. Every run repeats at Workers 0, 1 and
// 4: under Deterministic order the worker count must not change a
// single event. The runs cover full and ample-reduced expansion (the
// reduced grid and rings take the cycle proviso's fallbacks), a
// MaxStates truncation, a checker's early stop at a deadlock and a
// sink that stops in the middle of an expansion.
func TestDeterministicStreamGolden(t *testing.T) {
	type run struct {
		name   string
		sys    func() (*core.System, error)
		ample  bool
		max    int
		stopAt int  // stop at this many OnState calls; 0 never
		dl     bool // feed a DeadlockCheck, which stops at the first deadlock
		want   string
	}
	grid := func() (*core.System, error) { return models.CounterGrid(4, 4) }
	rings := func() (*core.System, error) {
		sys, err := models.PhilosopherRings(2, 3)
		if err != nil {
			return nil, err
		}
		return models.ControlOnly(sys)
	}
	diamond := func() (*core.System, error) { return models.DiamondGrid(6) }
	runs := []run{
		{name: "grid", sys: grid,
			want: "d=f4f13b45c373270f states=256 transitions=1024 truncated=false stopped=false ample=0 pruned=0 proviso=0"},
		{name: "grid-ample", sys: grid, ample: true,
			want: "d=c5c17381af01625f states=256 transitions=448 truncated=false stopped=false ample=192 pruned=576 proviso=64"},
		{name: "rings", sys: rings,
			want: "d=2688afe5ebcab01e states=16 transitions=48 truncated=false stopped=false ample=0 pruned=0 proviso=0"},
		{name: "rings-ample", sys: rings, ample: true,
			want: "d=89317989fca45b00 states=16 transitions=36 truncated=false stopped=false ample=10 pruned=12 proviso=6"},
		{name: "diamond", sys: diamond,
			want: "d=1bc836848ad10c94 states=729 transitions=2916 truncated=false stopped=false ample=0 pruned=0 proviso=0"},
		{name: "diamond-ample", sys: diamond, ample: true,
			want: "d=634fcb6a8c306a77 states=13 transitions=12 truncated=false stopped=false ample=10 pruned=30 proviso=0"},
		{name: "grid-truncated", sys: grid, max: 100,
			want: "d=370abeb9dd9b866d states=100 transitions=268 truncated=true stopped=false ample=0 pruned=0 proviso=0"},
		{name: "grid-ample-truncated", sys: grid, ample: true, max: 100,
			want: "d=dce4c6f2140e1ceb states=100 transitions=148 truncated=true stopped=false ample=80 pruned=240 proviso=20"},
		{name: "philosophers2p-deadlock", sys: func() (*core.System, error) { return models.PhilosophersDeadlocking(4) }, dl: true,
			want: "d=b5d078e67777ba14 states=34 transitions=85 truncated=false stopped=true ample=0 pruned=0 proviso=0"},
		{name: "grid-stop-mid-expansion", sys: grid, stopAt: 42,
			want: "d=f361f1f3f737bafa states=42 transitions=70 truncated=false stopped=true ample=0 pruned=0 proviso=0"},
	}
	for _, r := range runs {
		sys, err := r.sys()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 1, 4} {
			opts := Options{Workers: w, MaxStates: r.max}
			if r.ample {
				opts.Expander = ampleFor(t, sys, Visibility{})
			}
			g := &goldenSink{sys: sys, h: fnv.New64a(), stopAt: r.stopAt}
			if r.dl {
				g.inner = &DeadlockCheck{}
			}
			stats, err := Stream(sys, opts, g)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", r.name, w, err)
			}
			got := fmt.Sprintf("d=%016x states=%d transitions=%d truncated=%v stopped=%v ample=%d pruned=%d proviso=%d",
				g.h.Sum64(), stats.States, stats.Transitions, stats.Truncated, stats.Stopped,
				stats.AmpleStates, stats.PrunedMoves, stats.ProvisoFallbacks)
			if got != r.want {
				t.Errorf("%s workers=%d:\n got  %s\n want %s", r.name, w, got, r.want)
			}
		}
	}
}

// goldenSink digests the event stream into h, forwarding every event
// to inner (when set) so a checker can stop the run.
type goldenSink struct {
	sys    *core.System
	h      hash.Hash64
	buf    []byte
	inner  Sink
	stopAt int
	states int
}

func (g *goldenSink) write(tag byte, vals ...int) {
	g.buf = append(g.buf[:0], tag)
	for _, v := range vals {
		g.buf = binary.AppendVarint(g.buf, int64(v))
	}
	g.h.Write(g.buf)
}

func (g *goldenSink) label(l string) {
	g.write('L', len(l))
	g.h.Write([]byte(l))
}

func (g *goldenSink) OnState(id int, st core.State, d Discovery) error {
	g.write('S', id, d.Parent)
	g.label(d.Label)
	g.h.Write(g.sys.AppendBinaryKey(nil, st))
	g.states++
	if g.stopAt > 0 && g.states >= g.stopAt {
		return ErrStop
	}
	if g.inner != nil {
		return g.inner.OnState(id, st, d)
	}
	return nil
}

func (g *goldenSink) OnEdge(from, to int, label string) error {
	g.write('E', from, to)
	g.label(label)
	if g.inner != nil {
		return g.inner.OnEdge(from, to, label)
	}
	return nil
}

func (g *goldenSink) OnExpanded(id, moves int) error {
	g.write('X', id, moves)
	if g.inner != nil {
		return g.inner.OnExpanded(id, moves)
	}
	return nil
}

func (g *goldenSink) Done(truncated bool) error {
	tr := 0
	if truncated {
		tr = 1
	}
	g.write('D', tr)
	if g.inner != nil {
		return g.inner.Done(truncated)
	}
	return nil
}
