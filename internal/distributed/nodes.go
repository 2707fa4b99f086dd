package distributed

import (
	"fmt"
	"sort"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/expr"
	"bip/internal/network"
)

// Protocol messages. The offer/reserve/commit exchange is the
// send/receive refinement of multiparty interaction (Fig. 5.4: str/rcv/
// ack/cmp); reservation makes the refinement stable under conflicts,
// which is exactly what the paper's bottom-of-Fig-5.4 counterexample
// shows naive refinement is not (experiment E6).
type (
	// offerMsg: component → interaction protocols. One per state change.
	offerMsg struct {
		Comp    string
		Seq     int64
		Enabled map[string][]int
		Vars    expr.Slots
	}
	// reserveMsg: IP → component. Seq is the state the IP believes.
	reserveMsg struct {
		Seq     int64
		Attempt int64
	}
	reserveOKMsg struct {
		Comp    string
		Attempt int64
	}
	reserveFailMsg struct {
		Comp    string
		Attempt int64
	}
	// commitMsg: IP → component: fire the transition on Vars, a fresh
	// store holding the interaction's data-transfer results, which the
	// component adopts.
	commitMsg struct {
		Attempt int64
		Trans   int
		Vars    expr.Slots
	}
	abortMsg struct {
		Attempt int64
	}
	// committedMsg / abortedMsg: IP → observer (zero-delay channel).
	committedMsg struct{ Label string }
	abortedMsg   struct{}
	// Centralized CRP.
	reqMsg     struct{}
	grantMsg   struct{}
	releaseMsg struct{}
	// Token-ring CRP.
	tokenMsg struct{ IdleHops int }
	wakeMsg  struct{}
	// parkedMsg announces that the token has parked; nodes still waiting
	// for it answer with a fresh wake. This closes the race where a wake
	// is broadcast while the token is in transit and therefore reaches
	// no holder.
	parkedMsg struct{}
)

// compNode is the component layer: it executes the atom's local
// behaviour and speaks the offer/reserve/commit protocol.
type compNode struct {
	atom *behavior.Atom
	st   behavior.State
	seq  int64
	ips  []network.NodeID

	reservedBy      network.NodeID
	reservedAttempt int64
	waiters         map[network.NodeID]bool
}

func newCompNode(atom *behavior.Atom, ips []network.NodeID) *compNode {
	return &compNode{
		atom:    atom,
		st:      atom.InitialState(),
		ips:     ips,
		waiters: make(map[network.NodeID]bool),
	}
}

// Init broadcasts the initial offer.
func (c *compNode) Init(ctx network.Context) {
	c.broadcastOffer(ctx)
}

func (c *compNode) offer() offerMsg {
	enabled := make(map[string][]int)
	for _, p := range c.atom.Ports {
		// Local guard evaluation can only fail on malformed models,
		// which Deploy has validated; treat failure as disabled.
		if ts, err := c.atom.Enabled(c.st, p.Name); err == nil && len(ts) > 0 {
			enabled[p.Name] = ts
		}
	}
	// The offer shares the component's variable store instead of cloning
	// it per round. A published store is never written again — the IP
	// runs the data transfer on a clone and the commit builds the
	// successor state on that fresh store (see the commitMsg case) — so
	// IPs may keep reading their snapshots (guards, data transfer) long
	// after the component moved on. TestOfferStoresImmutableAfterCommit
	// pins this discipline.
	return offerMsg{Comp: c.atom.Name, Seq: c.seq, Enabled: enabled, Vars: c.st.Vars}
}

func (c *compNode) broadcastOffer(ctx network.Context) {
	o := c.offer()
	for _, ip := range c.ips {
		ctx.Send(ip, o)
	}
}

// Recv implements network.Handler.
func (c *compNode) Recv(ctx network.Context, from network.NodeID, msg any) {
	switch m := msg.(type) {
	case reserveMsg:
		switch {
		case c.reservedBy != "":
			// Busy: fail now, wake the requester when freed.
			c.waiters[from] = true
			ctx.Send(from, reserveFailMsg{Comp: c.atom.Name, Attempt: m.Attempt})
		case m.Seq != c.seq:
			// Stale view: the fresh offer is already in flight.
			ctx.Send(from, reserveFailMsg{Comp: c.atom.Name, Attempt: m.Attempt})
		default:
			c.reservedBy = from
			c.reservedAttempt = m.Attempt
			ctx.Send(from, reserveOKMsg{Comp: c.atom.Name, Attempt: m.Attempt})
		}
	case commitMsg:
		if c.reservedBy != from || c.reservedAttempt != m.Attempt {
			// A commit outside a valid reservation is a protocol bug.
			panic(fmt.Sprintf("distributed: %s: commit without reservation", c.atom.Name))
		}
		// Never mutate the published store: the local action runs on the
		// fresh store the IP sent, so every offer that shares the old
		// store stays a faithful snapshot of the state it advertised.
		next := behavior.State{Loc: c.st.Loc, Vars: m.Vars}
		loc, err := c.atom.ExecInPlace(next, m.Trans)
		if err != nil {
			panic(fmt.Sprintf("distributed: %s: %v", c.atom.Name, err))
		}
		next.Loc = loc
		c.st = next
		c.seq++
		c.clearReservation()
		// The broadcast reaches every interested IP, waiters included.
		c.broadcastOffer(ctx)
	case abortMsg:
		if c.reservedBy == from && c.reservedAttempt == m.Attempt {
			waiters := c.clearReservation()
			// Wake waiters with the (unchanged) offer so they retry.
			o := c.offer()
			for _, w := range waiters {
				ctx.Send(w, o)
			}
		}
	}
}

// clearReservation frees the component and returns the waiters to wake.
func (c *compNode) clearReservation() []network.NodeID {
	c.reservedBy = ""
	c.reservedAttempt = 0
	waiters := make([]network.NodeID, 0, len(c.waiters))
	for w := range c.waiters {
		waiters = append(waiters, w)
	}
	sort.Slice(waiters, func(i, j int) bool { return waiters[i] < waiters[j] })
	c.waiters = make(map[network.NodeID]bool)
	return waiters
}

// attemptState tracks the IP's single in-flight attempt. It works on a
// snapshot of the offers taken when the attempt started: fresher offers
// arriving mid-attempt must not change the state the reservations
// asserted (the component validates the snapshot's sequence number).
type attemptState struct {
	active       bool
	id           int64
	inter        int
	comps        []string // canonical (sorted) reservation order
	snapshot     map[string]offerMsg
	next         int
	external     bool
	reservedUpTo int
}

// ipNode is the interaction-protocol layer: one node per partition
// block.
type ipNode struct {
	sys      *core.System
	blockIdx int
	block    []int
	crp      CRP
	nBlocks  int
	shared   map[string]bool

	offers map[string]offerMsg
	rr     int
	// st holds the offered stores of the participants of the interaction
	// being evaluated or committed (its Locs are unused); the deriver
	// runs core's compiled guards and data transfer over it.
	st         core.State
	deriver    *core.TableDeriver
	attemptCtr int64
	attempt    attemptState

	// Centralized CRP state.
	waitingGrant, holdingGrant bool
	// Token-ring CRP state.
	hasToken, tokenParked, waitingToken, didWork bool
}

func newIPNode(sys *core.System, blockIdx int, block []int, compBlocks map[string]map[int]bool, crp CRP, nBlocks int) *ipNode {
	shared := make(map[string]bool)
	for comp, blocks := range compBlocks {
		if len(blocks) > 1 {
			shared[comp] = true
		}
	}
	return &ipNode{
		sys:      sys,
		blockIdx: blockIdx,
		block:    block,
		crp:      crp,
		nBlocks:  nBlocks,
		shared:   shared,
		offers:   make(map[string]offerMsg),
		st:       core.State{Vars: make([]expr.Slots, len(sys.Atoms))},
		deriver:  sys.NewTableDeriver(),
	}
}

// Init parks the token at block 0 in token-ring mode.
func (n *ipNode) Init(network.Context) {
	if n.crp == TokenRing && n.blockIdx == 0 {
		n.hasToken = true
		n.tokenParked = true
	}
}

// Recv implements network.Handler.
func (n *ipNode) Recv(ctx network.Context, from network.NodeID, msg any) {
	switch m := msg.(type) {
	case offerMsg:
		n.offers[m.Comp] = m
		n.tryStart(ctx)
	case reserveOKMsg:
		if !n.attempt.active || m.Attempt != n.attempt.id {
			// Late OK for a dead attempt: undo the reservation.
			ctx.Send(compID(m.Comp), abortMsg{Attempt: m.Attempt})
			return
		}
		n.attempt.reservedUpTo = n.attempt.next + 1
		n.attempt.next++
		if n.attempt.next < len(n.attempt.comps) {
			n.sendReserve(ctx)
			return
		}
		n.commitAttempt(ctx)
	case reserveFailMsg:
		if !n.attempt.active || m.Attempt != n.attempt.id {
			return
		}
		n.abortAttempt(ctx)
	case grantMsg:
		n.holdingGrant = true
		n.waitingGrant = false
		n.tryStart(ctx)
		if !n.attempt.active && n.holdingGrant {
			// Work disappeared while waiting: give the grant back.
			n.holdingGrant = false
			ctx.Send(arbiterID, releaseMsg{})
		}
	case tokenMsg:
		n.hasToken = true
		n.tokenParked = false
		n.waitingToken = false
		n.didWork = false
		n.tryStart(ctx)
		if !n.attempt.active {
			n.passToken(ctx, m.IdleHops+1)
		}
	case wakeMsg:
		if n.hasToken && n.tokenParked && !n.attempt.active {
			n.tokenParked = false
			n.tryStart(ctx)
			if !n.attempt.active {
				n.passToken(ctx, 0)
			}
		}
	case parkedMsg:
		if n.waitingToken && !n.hasToken {
			ctx.Send(from, wakeMsg{})
		}
	}
}

// enabledInBlock returns the block-relative indices of interactions
// currently enabled according to the offers.
func (n *ipNode) enabledInBlock() []int {
	var out []int
	for bi, ii := range n.block {
		if n.interactionEnabled(ii) {
			out = append(out, bi)
		}
	}
	return out
}

func (n *ipNode) interactionEnabled(ii int) bool {
	pa := n.sys.PortAtoms(ii)
	for pi, pr := range n.sys.Interactions[ii].Ports {
		o, ok := n.offers[pr.Comp]
		if !ok || len(o.Enabled[pr.Port]) == 0 {
			return false
		}
		n.st.Vars[pa[pi]] = o.Vars
	}
	ok, err := n.deriver.Guard(ii, &n.st)
	return err == nil && ok
}

// tryStart begins a new attempt when none is active and some interaction
// of the block is enabled.
func (n *ipNode) tryStart(ctx network.Context) {
	if n.attempt.active {
		return
	}
	cands := n.enabledInBlock()
	if len(cands) == 0 {
		return
	}
	// Round-robin for fairness within the block.
	pick := cands[0]
	for _, c := range cands {
		if c >= n.rr {
			pick = c
			break
		}
	}
	n.rr = (pick + 1) % len(n.block)
	ii := n.block[pick]
	in := n.sys.Interactions[ii]

	external := false
	comps := make([]string, 0, len(in.Ports))
	for _, pr := range in.Ports {
		comps = append(comps, pr.Comp)
		if n.shared[pr.Comp] {
			external = true
		}
	}
	sort.Strings(comps) // canonical order: the ordered-reservation CRP

	if external {
		switch n.crp {
		case Centralized:
			if !n.holdingGrant {
				if !n.waitingGrant {
					n.waitingGrant = true
					ctx.Send(arbiterID, reqMsg{})
				}
				return
			}
		case TokenRing:
			if !n.hasToken {
				if !n.waitingToken {
					n.waitingToken = true
					for b := 0; b < n.nBlocks; b++ {
						if b != n.blockIdx {
							ctx.Send(ipID(b), wakeMsg{})
						}
					}
				}
				return
			}
			n.tokenParked = false
		case Ordered:
			// Fully distributed: reservation order is the protocol.
		}
	}

	snapshot := make(map[string]offerMsg, len(comps))
	for _, c := range comps {
		snapshot[c] = n.offers[c]
	}
	n.attemptCtr++
	n.attempt = attemptState{
		active:   true,
		id:       n.attemptCtr,
		inter:    ii,
		comps:    comps,
		snapshot: snapshot,
		external: external,
	}
	n.didWork = true
	n.sendReserve(ctx)
}

func (n *ipNode) sendReserve(ctx network.Context) {
	comp := n.attempt.comps[n.attempt.next]
	o := n.attempt.snapshot[comp]
	ctx.Send(compID(comp), reserveMsg{Seq: o.Seq, Attempt: n.attempt.id})
}

// commitAttempt executes the interaction: data transfer on clones of
// the reserved snapshot's stores, commit to every participant with its
// new store, observation, cleanup.
func (n *ipNode) commitAttempt(ctx network.Context) {
	ii := n.attempt.inter
	in := n.sys.Interactions[ii]
	pa := n.sys.PortAtoms(ii)
	for pi, pr := range in.Ports {
		n.st.Vars[pa[pi]] = n.attempt.snapshot[pr.Comp].Vars.Clone()
	}
	if err := n.deriver.Transfer(ii, &n.st); err != nil {
		panic(fmt.Sprintf("distributed: %v", err))
	}
	for pi, pr := range in.Ports {
		o := n.attempt.snapshot[pr.Comp]
		ctx.Send(compID(pr.Comp), commitMsg{
			Attempt: n.attempt.id,
			Trans:   o.Enabled[pr.Port][0],
			Vars:    n.st.Vars[pa[pi]],
		})
		// Drop the consumed offer unless a fresher one already arrived.
		if cur, ok := n.offers[pr.Comp]; ok && cur.Seq == o.Seq {
			delete(n.offers, pr.Comp)
		}
	}
	ctx.SendDirect(observerID, committedMsg{Label: in.Name})
	n.endAttempt(ctx)
}

// abortAttempt releases partial reservations and ends the attempt.
func (n *ipNode) abortAttempt(ctx network.Context) {
	for i := 0; i < n.attempt.reservedUpTo; i++ {
		ctx.Send(compID(n.attempt.comps[i]), abortMsg{Attempt: n.attempt.id})
	}
	ctx.SendDirect(observerID, abortedMsg{})
	// Drop the failed component's cached offer unless a fresher one has
	// already arrived: the retry then waits for the wake-up offer the
	// component owes us (busy case) or the fresh broadcast (stale case).
	if i := n.attempt.next; i < len(n.attempt.comps) {
		comp := n.attempt.comps[i]
		if o, ok := n.offers[comp]; ok && o.Seq == n.attempt.snapshot[comp].Seq {
			delete(n.offers, comp)
		}
	}
	n.endAttempt(ctx)
}

func (n *ipNode) endAttempt(ctx network.Context) {
	n.attempt = attemptState{}
	if n.holdingGrant {
		n.holdingGrant = false
		ctx.Send(arbiterID, releaseMsg{})
	}
	n.tryStart(ctx)
	if n.crp == TokenRing && n.hasToken && !n.attempt.active && !n.tokenParked {
		n.passToken(ctx, 0)
	}
}

func (n *ipNode) passToken(ctx network.Context, idleHops int) {
	if idleHops >= n.nBlocks {
		// A full idle circle: park until someone needs it, and announce
		// the parking so that wakes sent while the token was in transit
		// are not lost.
		n.tokenParked = true
		for b := 0; b < n.nBlocks; b++ {
			if b != n.blockIdx {
				ctx.Send(ipID(b), parkedMsg{})
			}
		}
		return
	}
	n.hasToken = false
	n.tokenParked = false
	ctx.Send(ipID((n.blockIdx+1)%n.nBlocks), tokenMsg{IdleHops: idleHops})
}

// arbiter is the centralized CRP: a FIFO mutual-exclusion service.
type arbiter struct {
	busy  bool
	queue []network.NodeID
}

func newArbiter() *arbiter { return &arbiter{} }

// Init implements network.Handler.
func (a *arbiter) Init(network.Context) {}

// Recv implements network.Handler.
func (a *arbiter) Recv(ctx network.Context, from network.NodeID, msg any) {
	switch msg.(type) {
	case reqMsg:
		if !a.busy {
			a.busy = true
			ctx.Send(from, grantMsg{})
			return
		}
		a.queue = append(a.queue, from)
	case releaseMsg:
		if len(a.queue) > 0 {
			next := a.queue[0]
			a.queue = a.queue[1:]
			ctx.Send(next, grantMsg{})
			return
		}
		a.busy = false
	}
}
