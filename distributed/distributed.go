// Package distributed is the public facade over the three-layer
// send/receive transformation (§5.4 of the paper): a validated BIP model
// is decomposed into S/R component nodes, interaction-protocol nodes and
// a conflict-resolution layer, executed over a simulated asynchronous
// network, with the committed interaction order replay-validated against
// the reference semantics.
package distributed

import (
	"bip"
	idist "bip/internal/distributed"
)

type (
	// Config parameterizes a deployment (protocol, partition, seed,
	// commit and message caps).
	Config = idist.Config
	// CRP selects the conflict-resolution protocol.
	CRP = idist.CRP
	// Stats reports a deployment run (commits, messages, aborts,
	// messages per commit).
	Stats = idist.Stats
	// Deployment is a built three-layer system ready to Run.
	Deployment = idist.Deployment
)

// The conflict-resolution protocols of the paper's Fig. 5.5.
const (
	// Centralized uses a single arbiter granting exclusive commits.
	Centralized = idist.Centralized
	// TokenRing circulates commit permission among protocol nodes.
	TokenRing = idist.TokenRing
	// Ordered is the fully distributed dining-philosophers scheme.
	Ordered = idist.Ordered
)

// Deploy builds the three-layer distributed system for sys. The
// protocols implement the unprioritized semantics, so a system with
// priority rules is refused.
func Deploy(sys *bip.System, cfg Config) (*Deployment, error) { return idist.Deploy(sys, cfg) }

// ReplayLabels validates a committed interaction order against the
// reference semantics, returning the number of steps replayed.
func ReplayLabels(sys *bip.System, labels []string) (int, error) {
	return idist.ReplayLabels(sys, labels)
}
