package dst

import (
	"fmt"
	"math/rand"
	"strings"
)

// OpKind enumerates the scenario interpreter's verbs. The stream mixes
// the serving daemon's whole external surface: submissions (singleton,
// batch, keyed), completions, the machine lifecycle, model
// hot-swaps, virtual-clock jumps, snapshot compaction and full simulated
// crashes.
type OpKind int

const (
	OpSubmit OpKind = iota
	OpBatch
	OpComplete
	OpKill
	OpRevive
	OpDrain
	OpUndrain
	OpDedup
	OpAdvance
	OpSwap
	OpSnapshot
	OpCrash
	numOpKinds
)

var opNames = [numOpKinds]string{
	"submit", "batch", "complete", "kill", "revive",
	"drain", "undrain", "dedup", "advance", "swap", "snapshot", "crash",
}

// Op is one scenario step: a verb plus one argument whose meaning depends
// on the verb (application index, machine index, key index, batch width,
// or clock-jump milliseconds).
type Op struct {
	Kind OpKind
	Arg  int
}

func (o Op) String() string {
	if o.Kind < 0 || o.Kind >= numOpKinds {
		return fmt.Sprintf("op?(%d,%d)", int(o.Kind), o.Arg)
	}
	return fmt.Sprintf("%s(%d)", opNames[o.Kind], o.Arg)
}

// FormatOps renders an op stream as one readable line (shrunk repros).
func FormatOps(ops []Op) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ")
}

// GenOps draws n ops from rng. The weights keep the cluster busy (about
// half the stream is submission work) while still exercising every fault
// and maintenance verb; crashes, swaps and snapshots are rare enough that
// a 100-op stream usually sees one or two of each.
func GenOps(rng *rand.Rand, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: drawKind(rng), Arg: rng.Intn(1 << 16)}
	}
	return ops
}

func drawKind(rng *rand.Rand) OpKind {
	switch r := rng.Intn(100); {
	case r < 24:
		return OpSubmit
	case r < 44:
		return OpBatch
	case r < 62:
		return OpComplete
	case r < 70:
		return OpKill
	case r < 78:
		return OpRevive
	case r < 83:
		return OpDrain
	case r < 88:
		return OpUndrain
	case r < 93:
		return OpDedup
	case r < 96:
		return OpAdvance
	case r < 97:
		return OpSwap
	case r < 98:
		return OpSnapshot
	default:
		return OpCrash
	}
}
