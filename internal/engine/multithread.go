package engine

import (
	"fmt"
	"sync"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/expr"
)

// MTOptions configures the multi-threaded engine.
type MTOptions struct {
	// MaxSteps bounds the number of committed interactions; 0 means the
	// default of 10_000.
	MaxSteps int
}

// MTResult reports a multi-threaded run. Moves is the committed
// linearization: replaying it through the core semantics must succeed
// (see Replay), which is the engine's correctness witness.
type MTResult struct {
	Steps      int
	Deadlocked bool
	Moves      []core.Move
	Labels     []string
}

// offer is what a component goroutine reports to the engine: its enabled
// transitions per port and its variable store. Both are owned by the
// component; the engine uses them only between receiving the offer and
// sending the matching command — reading them, and writing the
// interaction's data-transfer results into the store — while the
// component is blocked on its command channel. The channel operations
// order those accesses, so no copy is needed.
type offer struct {
	comp    int
	enabled map[string][]int
	vars    expr.Slots
}

// command is what the engine sends back: fire transition trans (the
// data transfer has already updated the offered store), or stop.
type command struct {
	stop  bool
	trans int
}

// RunMT executes sys with the multi-threaded engine: one goroutine per
// component, coordinated by the engine goroutine (this function).
// Interactions with pairwise-disjoint participants are committed in the
// same round and their component-local actions execute concurrently —
// this is where the multi-threaded engine gains over the single-threaded
// one when components perform real computation (experiment E8).
//
// Priorities are honoured among the interactions evaluable in a round,
// matching the BIP multi-threaded engine's partial-state semantics.
func RunMT(sys *core.System, opts MTOptions) (*MTResult, error) {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10_000
	}
	n := len(sys.Atoms)
	offers := make(chan offer) // rendezvous with component goroutines
	cmds := make([]chan command, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cmds[i] = make(chan command, 1)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if err := componentLoop(sys.Atoms[ci], ci, offers, cmds[ci]); err != nil {
				errs <- err
			}
		}(i)
	}
	res, runErr := newCoordinator(sys).run(offers, cmds, maxSteps)
	// Shut every component down and wait.
	for i := 0; i < n; i++ {
		cmds[i] <- command{stop: true}
	}
	// Drain offers so components blocked on sending can see stop.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-offers:
		case err := <-errs:
			if runErr == nil {
				runErr = err
			}
		case <-done:
			if runErr != nil {
				return nil, runErr
			}
			return res, nil
		}
	}
}

// componentLoop is the body of one component goroutine: offer, await
// command, execute, repeat. The component's variable store is mutated in
// place: the engine has finished with the offered store by the time the
// command arrives (channel ordering), so no per-step cloning is needed.
func componentLoop(atom *behavior.Atom, ci int, offers chan<- offer, cmds <-chan command) error {
	st := atom.InitialState()
	for {
		o, err := makeOffer(atom, ci, st)
		if err != nil {
			return err
		}
		// Offer current capabilities; the command may arrive before the
		// offer is consumed (stop case), so watch both.
		select {
		case offers <- o:
		case c := <-cmds:
			if c.stop {
				return nil
			}
			return fmt.Errorf("component %s: execute before offer", atom.Name)
		}
		c := <-cmds
		if c.stop {
			return nil
		}
		if err := c.execute(atom, &st); err != nil {
			return err
		}
	}
}

// makeOffer reports component ci's enabled transitions per port at st,
// sharing its variable store.
func makeOffer(atom *behavior.Atom, ci int, st behavior.State) (offer, error) {
	en := make(map[string][]int, len(atom.Ports))
	for _, p := range atom.Ports {
		ts, err := atom.EnabledView(st, p.Name)
		if err != nil {
			return offer{}, fmt.Errorf("component %s: %w", atom.Name, err)
		}
		if len(ts) > 0 {
			en[p.Name] = ts
		}
	}
	return offer{comp: ci, enabled: en, vars: st.Vars}, nil
}

// execute carries out an execute command on the component's state: fire
// the local transition on the store the engine's data transfer has
// already updated. The local action runs in the component's own
// goroutine — concurrently with other components' actions.
func (c command) execute(atom *behavior.Atom, st *behavior.State) error {
	loc, err := atom.ExecInPlace(*st, c.trans)
	if err != nil {
		return fmt.Errorf("component %s: %w", atom.Name, err)
	}
	st.Loc = loc
	return nil
}

// coordinator is the engine proper plus its incremental evaluation
// state. Only the interactions incident to components whose offers
// changed since the last round are re-evaluated; the rest keep their
// cached move sets. Guards, data transfer and priority conditions run
// core's compiled code (through a TableDeriver) over st, whose Vars are
// the offered stores; its Locs are unused.
type coordinator struct {
	sys     *core.System
	current []*offer
	ready   int

	st        core.State
	deriver   *core.TableDeriver
	cache     [][]core.Move // cache[ii]: moves evaluable from current offers
	dirty     []bool
	moveBuf   []core.Move // scratch: assembled round moves
	choiceBuf []int       // scratch: cartesian-product cursor
}

func newCoordinator(sys *core.System) *coordinator {
	ni := len(sys.Interactions)
	c := &coordinator{
		sys:     sys,
		current: make([]*offer, len(sys.Atoms)),
		st:      core.State{Vars: make([]expr.Slots, len(sys.Atoms))},
		deriver: sys.NewTableDeriver(),
		cache:   make([][]core.Move, ni),
		dirty:   make([]bool, ni),
	}
	for ii := range c.dirty {
		c.dirty[ii] = true
	}
	return c
}

// install records a fresh offer: the component's store joins st and its
// incident interactions are marked dirty.
func (c *coordinator) install(o offer) {
	if c.current[o.comp] == nil {
		c.ready++
	}
	oc := o
	c.current[o.comp] = &oc
	c.st.Vars[o.comp] = o.vars
	for _, ii := range c.sys.IncidentTo(o.comp) {
		c.dirty[ii] = true
	}
}

// invalidate drops a component's offer after its transition was
// commanded; its incident interactions can no longer be evaluated until
// a new offer arrives (which will mark them dirty again).
func (c *coordinator) invalidate(ci int) {
	c.current[ci] = nil
	c.ready--
	for _, ii := range c.sys.IncidentTo(ci) {
		c.dirty[ii] = true
		c.cache[ii] = c.cache[ii][:0]
	}
}

// run gathers offers, selects a maximal set of non-conflicting enabled
// interactions, and commits them.
func (c *coordinator) run(offers <-chan offer, cmds []chan command, maxSteps int) (*MTResult, error) {
	sys := c.sys
	n := len(sys.Atoms)
	res := &MTResult{}

	for res.Steps < maxSteps {
		// Wait for offers until every component is ready. (Partial-state
		// engines can fire earlier; waiting for quiescence keeps
		// priority evaluation faithful while still committing disjoint
		// interactions concurrently.)
		for c.ready < n {
			c.install(<-offers)
		}
		moves, err := c.evaluable()
		if err != nil {
			return nil, err
		}
		if len(moves) == 0 {
			res.Deadlocked = true
			return res, nil
		}
		// Greedy maximal set of participant-disjoint moves, in move
		// order (deterministic).
		busy := make([]bool, n)
		var batch []core.Move
		for _, m := range moves {
			conflict := false
			for _, ai := range sys.PortAtoms(m.Interaction) {
				if busy[ai] {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			for _, ai := range sys.PortAtoms(m.Interaction) {
				busy[ai] = true
			}
			batch = append(batch, m)
			if res.Steps+len(batch) >= maxSteps {
				break
			}
		}
		for _, m := range batch {
			if err := c.commit(m, cmds); err != nil {
				return nil, err
			}
			for _, ai := range sys.PortAtoms(m.Interaction) {
				c.invalidate(ai)
			}
			res.Moves = append(res.Moves, core.Move{
				Interaction: m.Interaction,
				Choices:     append([]int(nil), m.Choices...),
			})
			res.Labels = append(res.Labels, sys.Label(m))
			res.Steps++
		}
	}
	return res, nil
}

// evaluable computes the moves enabled according to the current offers,
// with priorities applied. Only dirty interactions are re-derived.
func (c *coordinator) evaluable() ([]core.Move, error) {
	sys := c.sys
	for ii, in := range sys.Interactions {
		if !c.dirty[ii] {
			continue
		}
		c.dirty[ii] = false
		c.cache[ii] = c.cache[ii][:0]
		pa := sys.PortAtoms(ii)
		// Resolve each port's option slice once (one map lookup per
		// port), not once per cartesian-product node.
		var optArr [8][]int
		var options [][]int
		if len(in.Ports) <= len(optArr) {
			options = optArr[:len(in.Ports)]
		} else {
			options = make([][]int, len(in.Ports))
		}
		ok := true
		for pi, pr := range in.Ports {
			o := c.current[pa[pi]]
			if o == nil || len(o.enabled[pr.Port]) == 0 {
				ok = false
				break
			}
			options[pi] = o.enabled[pr.Port]
		}
		if !ok {
			continue
		}
		g, err := c.deriver.Guard(ii, &c.st)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		if !g {
			continue
		}
		// Cartesian product of per-port choices.
		if cap(c.choiceBuf) < len(in.Ports) {
			c.choiceBuf = make([]int, len(in.Ports))
		}
		choice := c.choiceBuf[:len(in.Ports)]
		var rec func(int)
		rec = func(pi int) {
			if pi == len(in.Ports) {
				c.cache[ii] = append(c.cache[ii], core.Move{
					Interaction: ii, Choices: append([]int(nil), choice...),
				})
				return
			}
			for _, t := range options[pi] {
				choice[pi] = t
				rec(pi + 1)
			}
		}
		rec(0)
	}
	// Priority filtering over the evaluable set: core's filter, with the
	// compiled priority conditions reading the offered stores.
	out, err := c.deriver.Enabled(c.cache, c.st, c.moveBuf[:0])
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	c.moveBuf = out
	return out, nil
}

// commit executes one interaction: data transfer in place on the
// participants' offered stores, then an execute command to each
// participant. Each participant is blocked on its command channel until
// the send, so the transfer's writes happen before its own accesses.
func (c *coordinator) commit(m core.Move, cmds []chan command) error {
	if err := c.deriver.Transfer(m.Interaction, &c.st); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	for pi, ci := range c.sys.PortAtoms(m.Interaction) {
		cmds[ci] <- command{trans: m.Choices[pi]}
	}
	return nil
}
