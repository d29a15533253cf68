// Package msg defines the coherence and memory-system message vocabulary
// exchanged between L1 controllers, L2 slices, coherence directories, and
// DRAM partitions, together with the on-wire sizes used for bandwidth
// accounting.
//
// HMG's protocol (paper Table I) needs remarkably few message kinds
// because it has no transient states and no invalidation acknowledgments:
// requests, data replies, background invalidations, and the release
// fence/ack pair are the entire vocabulary.
package msg

import "fmt"

// Kind enumerates message types.
type Kind uint8

const (
	// LoadReq requests a line (or word) from a lower level or a home node.
	LoadReq Kind = iota
	// StoreReq carries write-through data toward a home node.
	StoreReq
	// AtomicReq requests a read-modify-write at the home node of the
	// operation's scope.
	AtomicReq
	// DataResp returns a full cache line in response to a LoadReq.
	DataResp
	// AtomicResp returns the pre-image of an atomic operation.
	AtomicResp
	// Inv invalidates any clean copy of a region at the receiver. No
	// acknowledgment is ever sent (non-multi-copy-atomic model).
	Inv
	// RelFence probes a remote L2 during a release operation, asking it
	// to acknowledge once in-flight invalidations have been delivered.
	RelFence
	// RelAck acknowledges a RelFence.
	RelAck
	// Downgrade notifies a home node that a clean line was evicted so the
	// sharer can be dropped (optional protocol optimization; modeled but
	// disabled in the paper's evaluation and in ours by default).
	Downgrade
	// InvAck acknowledges an invalidation — used only by the
	// multi-copy-atomic GPU-VI baseline; HMG's headline property is that
	// it needs none.
	InvAck
	// WriteBack carries a dirty line to its home under the write-back L2
	// design option (Section IV). The home applies it as a store of the
	// whole line, recording the issuing GPM as a sharer.
	WriteBack
)

var kindNames = [...]string{
	LoadReq:    "LoadReq",
	StoreReq:   "StoreReq",
	AtomicReq:  "AtomicReq",
	DataResp:   "DataResp",
	AtomicResp: "AtomicResp",
	Inv:        "Inv",
	RelFence:   "RelFence",
	RelAck:     "RelAck",
	Downgrade:  "Downgrade",
	InvAck:     "InvAck",
	WriteBack:  "WriteBack",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NumKinds is the number of defined message kinds, for stats arrays.
const NumKinds = len(kindNames)

// Sizes gives the on-wire size in bytes of each message kind. These feed
// the link serialization model and the Fig. 11 invalidation-bandwidth
// accounting.
type Sizes struct {
	// Header is the size of any control message (requests, invs, acks).
	Header int
	// StorePayload is the sector size carried by a write-through store.
	StorePayload int
	// Line is the cache line size carried by a DataResp.
	Line int
}

// DefaultSizes matches the paper's 128-byte lines with a 16-byte header
// and 32-byte write-through sectors.
func DefaultSizes() Sizes { return Sizes{Header: 16, StorePayload: 32, Line: 128} }

// Bytes returns the wire size of a message of kind k.
func (s Sizes) Bytes(k Kind) int {
	switch k {
	case DataResp, WriteBack:
		return s.Header + s.Line
	case StoreReq:
		return s.Header + s.StorePayload
	case AtomicReq, AtomicResp:
		return s.Header + 8
	default:
		return s.Header
	}
}
