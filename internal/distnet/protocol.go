// Package distnet implements multi-process elastic distributed training: a
// coordinator process drives synchronous data-parallel SGD across N trainer
// processes over TCP. The trainer roster is a member set of
// train.NetworkOver: its pre-scaled per-shard gradients go through the same
// canonical ascending fold and single optimizer step as in-process
// replicas — so an R-trainer run is bit-identical to sequential
// train.Network and to train.Network with R replicas at equal effective
// shard size (DESIGN.md §13).
//
// The wire protocol is length-prefixed binary frames: a fixed header
// (magic, version, frame type, payload length, SHA-256 of the payload)
// followed by a gob-encoded payload of plain slices — the same
// gob-of-slices serialization contract train.State uses, so equal logical
// state produces equal bytes. A truncated, corrupt, version-skewed, or
// oversized frame is rejected with a typed error before any oversized
// allocation; the codec never panics on adversarial input (fuzz_test.go).
package distnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"gmreg/internal/models"
)

// Frame header layout (big-endian):
//
//	[0:4)   magic "GMDN"
//	[4:6)   protocol version (uint16)
//	[6:7)   frame type
//	[7:11)  payload length (uint32)
//	[11:43) SHA-256 of the payload
//	[43:…)  payload (gob)
const (
	frameMagic   = "GMDN"
	protoVersion = 1
	headerLen    = 4 + 2 + 1 + 4 + sha256.Size

	// MaxPayload bounds a frame's payload so a corrupt or hostile length
	// prefix can never force an oversized allocation. 256 MiB comfortably
	// fits any weight broadcast this repo can produce.
	MaxPayload = 1 << 28
)

// FrameType discriminates protocol frames.
type FrameType uint8

// Protocol frames. The coordinator sends Welcome/Step/Ping/Done; trainers
// send Hello/Grads/Pong/Bye.
const (
	FrameHello FrameType = iota + 1
	FrameWelcome
	FrameStep
	FrameGrads
	FramePing
	FramePong
	FrameBye
	FrameDone
	frameMax
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameStep:
		return "step"
	case FrameGrads:
		return "grads"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameBye:
		return "bye"
	case FrameDone:
		return "done"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Typed frame-codec errors. Callers match them with errors.Is / errors.As;
// none of them is ever a panic.
var (
	// ErrBadMagic marks a stream that is not the distnet protocol at all.
	ErrBadMagic = errors.New("distnet: bad frame magic")
	// ErrChecksum marks a payload whose SHA-256 does not match its header —
	// a truncated, corrupted, or tampered frame.
	ErrChecksum = errors.New("distnet: frame payload fails its checksum")
	// ErrFrameTooLarge marks a length prefix beyond MaxPayload; it is
	// returned before any payload allocation.
	ErrFrameTooLarge = errors.New("distnet: frame payload exceeds limit")
	// ErrUnknownFrame marks an out-of-range frame type.
	ErrUnknownFrame = errors.New("distnet: unknown frame type")
	// ErrTruncated marks a frame cut off mid-header or mid-payload.
	ErrTruncated = errors.New("distnet: truncated frame")
)

// VersionError reports protocol version skew between peers.
type VersionError struct {
	Got, Want uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("distnet: protocol version %d, this binary speaks %d", e.Got, e.Want)
}

// WriteFrame writes one frame and returns the total bytes written.
func WriteFrame(w io.Writer, t FrameType, payload []byte) (int, error) {
	if t == 0 || t >= frameMax {
		return 0, fmt.Errorf("%w: %d", ErrUnknownFrame, t)
	}
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	hdr := make([]byte, headerLen)
	copy(hdr, frameMagic)
	binary.BigEndian.PutUint16(hdr[4:], protoVersion)
	hdr[6] = byte(t)
	binary.BigEndian.PutUint32(hdr[7:], uint32(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[11:], sum[:])
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return headerLen + len(payload), nil
}

// ReadFrame reads one frame, verifying magic, version, type, length bound,
// and payload checksum. It returns the frame type, payload, and total bytes
// consumed. io.EOF is returned untouched at a clean frame boundary;
// anything cut off mid-frame wraps ErrTruncated.
func ReadFrame(r io.Reader) (FrameType, []byte, int, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	if string(hdr[:4]) != frameMagic {
		return 0, nil, 0, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(hdr[4:]); v != protoVersion {
		return 0, nil, 0, &VersionError{Got: v, Want: protoVersion}
	}
	t := FrameType(hdr[6])
	if t == 0 || t >= frameMax {
		return 0, nil, 0, fmt.Errorf("%w: %d", ErrUnknownFrame, hdr[6])
	}
	n := binary.BigEndian.Uint32(hdr[7:])
	if n > MaxPayload {
		return 0, nil, 0, fmt.Errorf("%w: header claims %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: reading %d-byte payload: %v", ErrTruncated, n, err)
	}
	if sha256.Sum256(payload) != [sha256.Size]byte(hdr[11:11+sha256.Size]) {
		return 0, nil, 0, ErrChecksum
	}
	return t, payload, headerLen + int(n), nil
}

// Hello is the trainer's handshake: sent once after dialing.
type Hello struct {
	// Name labels the trainer in membership events ("host:pid" by default).
	Name string
}

// Welcome is the coordinator's handshake reply: everything a trainer needs
// to reproduce the coordinator's computation bit for bit — the architecture
// to build and the kernel numerics fingerprint to pin (the chunk partition
// of deterministic reductions is a pure function of these two tunables, so
// matching them makes shard gradients byte-equal across processes).
type Welcome struct {
	// Slot is the trainer's membership slot: assigned once, never reused,
	// and the sort key of the deterministic shard assignment.
	Slot int
	// Spec declares the architecture the trainer must build.
	Spec models.Spec
	// PartitionGrain and SerialCutoff are the coordinator's deterministic-
	// reduction tunables; the trainer adopts them before building the net.
	PartitionGrain int
	SerialCutoff   int
}

// Shard is one micro-shard of a global minibatch: the input rows, labels,
// and canonical shard index the gradient is folded under.
type Shard struct {
	// Index is the shard's position in the canonical ascending fold order.
	Index int
	// Shape is the NCHW (or [n, features]) shape of X.
	Shape []int
	// X and Y are the shard's input values and class labels.
	X []float64
	Y []int
}

// Step is one unit of coordinated work: the authoritative weights, the
// batch-norm running statistics, and the shards this trainer owns for the
// current global minibatch. A Step with no shards is a liveness probe the
// trainer answers with an empty Grads.
type Step struct {
	// Seq identifies the step; the trainer echoes it in its Grads reply.
	Seq int64
	// Epoch is the 0-based training epoch (informational).
	Epoch int
	// MemberEpoch is the membership epoch the assignment was computed under.
	MemberEpoch int
	// N is the global minibatch row count — the 1/n pre-scaling every shard
	// gradient is computed with.
	N int
	// Params carries the authoritative weights, one flat slice per
	// parameter group in network order.
	Params [][]float64
	// Stats carries the batch-norm running statistics: for each batch-norm
	// layer in network order, its running mean then its running variance.
	Stats [][]float64
	// Shards lists this trainer's shards in ascending Index order.
	Shards []Shard
}

// ShardGrad is one shard's computed contribution.
type ShardGrad struct {
	// Index is the shard's canonical fold position.
	Index int
	// Grad is the flattened pre-scaled (1/n) gradient over all parameter
	// groups, in the train.GradBank layout.
	Grad []float64
	// Loss is the shard's pre-scaled data loss.
	Loss float64
}

// Grads is the trainer's reply to a Step.
type Grads struct {
	// Seq echoes the Step's sequence number.
	Seq int64
	// Shards carries one gradient per assigned shard, ascending Index.
	Shards []ShardGrad
	// Stats is the trainer's batch-norm running statistics after its
	// shards, laid out like Step.Stats; nil for batch-norm-free nets.
	Stats [][]float64
}

// Done tells trainers the run completed normally.
type Done struct {
	// Epochs is the completed epoch count.
	Epochs int
}

// encodePayload gob-encodes a frame payload.
func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("distnet: encoding payload: %w", err)
	}
	return buf.Bytes(), nil
}

// decodePayload decodes a frame payload into v.
func decodePayload(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("distnet: decoding payload: %w", err)
	}
	return nil
}
