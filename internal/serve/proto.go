// Package serve is the network serving frontend for the ArtMem stack:
// a dependency-free batched streaming request layer through which
// remote clients submit access streams and allocation requests for
// their tenant. It turns the simulator from a control/observability
// daemon into a service — the production-shaped traffic path the
// ROADMAP's north star asks for.
//
// The layer has four parts:
//
//   - a wire protocol (this file): length-prefixed binary frames
//     carrying batches of {op: access|alloc|free, addr/size} records
//     with client-chosen sequence numbers, acked per batch;
//   - a server core (server.go): per-tenant bounded ingress queues,
//     request coalescing into one AccessBatch call per pump, admission
//     control (a full queue sheds the batch with a backpressure frame
//     instead of buffering without bound — the TierBPF posture applied
//     at the request boundary), and graceful drain on shutdown;
//   - a client + load generator (client.go, loadgen.go): the engine
//     behind cmd/artload, replaying internal/workloads traces from N
//     concurrent simulated clients with a bounded in-flight window;
//   - a deterministic lockstep harness: the same server core driven
//     synchronously (Submit + Pump, no Start, no goroutines), so the
//     servebench experiment's tables are byte-stable and
//     benchdiff-gateable.
//
// Framing. Every frame is
//
//	uint32 length | uint8 type | body
//
// (big-endian), where length counts the type byte plus the body and is
// capped at MaxFrameSize. Batch records are variable-length by op:
// an access record is 9 bytes (opflags + addr), alloc and free records
// are 17 (opflags + addr + size). The decoder is hardened against
// garbage: truncated frames, oversized lengths, bad opcodes and short
// record bodies all return errors, never panic (fuzz-tested).
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtoVersion is the wire protocol version carried in Hello frames.
// Servers reject clients speaking a different version.
const ProtoVersion = 1

// MaxFrameSize caps the length prefix of any frame (type byte + body).
// A peer announcing a larger frame is malformed and disconnected —
// the first line of defence against memory-exhaustion by a bad client.
const MaxFrameSize = 1 << 20

// Frame types.
const (
	// FrameHello opens a stream: the client declares its protocol
	// version, tenant slot, and a client id string.
	FrameHello = 0x01
	// FrameHelloAck answers a Hello with a status code.
	FrameHelloAck = 0x02
	// FrameBatch carries one sequenced batch of records.
	FrameBatch = 0x03
	// FrameAck acknowledges one batch: every record was applied.
	FrameAck = 0x04
	// FrameReject refuses one batch (or, with Seq 0, the stream): the
	// code says why — backpressure, bad tenant, draining, malformed.
	FrameReject = 0x05
	// FrameBye is a clean end-of-stream notice, either direction.
	FrameBye = 0x06
	// FrameDrain is the server's shutdown notice: queued batches will
	// still be acked, new ones are rejected with CodeDraining.
	FrameDrain = 0x07
)

// Record ops.
const (
	// OpAccess is one memory reference of the tenant's address space.
	OpAccess = 0
	// OpAlloc asks for first-touch allocation of [Addr, Addr+Size): the
	// server touches each page once (a write), the machine's first-touch
	// allocator does the rest.
	OpAlloc = 1
	// OpFree unallocates the pages of [Addr, Addr+Size) owned by the
	// tenant.
	OpFree = 2
)

// Status codes for HelloAck and Reject frames.
const (
	// CodeOK accepts the Hello.
	CodeOK = 0
	// CodeOverloaded is the backpressure signal: the tenant's ingress
	// queue is at capacity and this batch was shed (the protocol's 429).
	// The client may retry after draining its window.
	CodeOverloaded = 1
	// CodeBadTenant rejects a Hello or batch naming an out-of-range or
	// unoccupied tenant slot.
	CodeBadTenant = 2
	// CodeDraining rejects new work while the server shuts down.
	CodeDraining = 3
	// CodeThrottled mirrors the tenancy plane's registration/admission
	// backpressure (tenancy.ErrRegistrationThrottled and friends) onto
	// the wire: retry next control period.
	CodeThrottled = 4
	// CodeMalformed reports an undecodable frame; the server closes the
	// connection after sending it.
	CodeMalformed = 5
)

// CodeString names a status code for telemetry labels and logs.
func CodeString(code byte) string {
	switch code {
	case CodeOK:
		return "ok"
	case CodeOverloaded:
		return "overloaded"
	case CodeBadTenant:
		return "bad_tenant"
	case CodeDraining:
		return "draining"
	case CodeThrottled:
		return "throttled"
	case CodeMalformed:
		return "malformed"
	}
	return fmt.Sprintf("code%d", code)
}

// Record is one decoded request record.
type Record struct {
	// Op is OpAccess, OpAlloc, or OpFree.
	Op byte
	// Write marks an access as a store (ignored for alloc/free).
	Write bool
	// Addr is the tenant-relative byte address.
	Addr uint64
	// Size is the byte length of an alloc/free range (0 for access).
	Size uint64
}

// Frame is one decoded protocol frame; the fields populated depend on
// Type.
type Frame struct {
	// Type is the frame type (FrameHello ... FrameDrain).
	Type byte

	// Version and Tenant are Hello fields; ClientID labels the stream.
	Version  byte
	Tenant   uint32
	ClientID string

	// Seq is the batch sequence number (Batch, Ack, Reject).
	Seq uint64
	// Records is the decoded batch payload.
	Records []Record
	// Count is the acked record count (Ack).
	Count uint32
	// QueueNs is the server-side queue residency of the acked batch in
	// wall nanoseconds — informational, for client-side breakdowns.
	QueueNs uint64

	// Code and Msg explain a HelloAck or Reject.
	Code byte
	Msg  string
}

// Protocol errors.
var (
	// ErrFrameTooLarge reports a length prefix above MaxFrameSize.
	ErrFrameTooLarge = errors.New("serve: frame exceeds MaxFrameSize")
	// ErrMalformed reports an undecodable frame body.
	ErrMalformed = errors.New("serve: malformed frame")
)

// flagWrite marks an access record as a store in the opflags byte.
const flagWrite = 0x80

// ---- encoding ------------------------------------------------------------

// appendFrame wraps body (starting with its type byte) in a length
// prefix.
func appendFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// AppendHello encodes a Hello frame.
func AppendHello(dst []byte, tenant uint32, clientID string) []byte {
	body := make([]byte, 0, 8+len(clientID))
	body = append(body, FrameHello, ProtoVersion)
	body = binary.BigEndian.AppendUint32(body, tenant)
	body = binary.BigEndian.AppendUint16(body, uint16(len(clientID)))
	body = append(body, clientID...)
	return appendFrame(dst, body)
}

// AppendHelloAck encodes a HelloAck frame.
func AppendHelloAck(dst []byte, code byte, msg string) []byte {
	body := make([]byte, 0, 4+len(msg))
	body = append(body, FrameHelloAck, code)
	body = binary.BigEndian.AppendUint16(body, uint16(len(msg)))
	body = append(body, msg...)
	return appendFrame(dst, body)
}

// AppendBatch encodes a Batch frame carrying recs under sequence seq.
func AppendBatch(dst []byte, seq uint64, recs []Record) []byte {
	body := make([]byte, 0, 13+17*len(recs))
	body = append(body, FrameBatch)
	body = binary.BigEndian.AppendUint64(body, seq)
	body = binary.BigEndian.AppendUint32(body, uint32(len(recs)))
	for _, r := range recs {
		of := r.Op
		if r.Write {
			of |= flagWrite
		}
		body = append(body, of)
		body = binary.BigEndian.AppendUint64(body, r.Addr)
		if r.Op != OpAccess {
			body = binary.BigEndian.AppendUint64(body, r.Size)
		}
	}
	return appendFrame(dst, body)
}

// AppendAccessBatch encodes a Batch frame of pure access records given
// parallel addr/write slices — the load generator's hot path, one
// append pass without building []Record.
func AppendAccessBatch(dst []byte, seq uint64, addrs []uint64, writes []bool) []byte {
	body := make([]byte, 0, 13+9*len(addrs))
	body = append(body, FrameBatch)
	body = binary.BigEndian.AppendUint64(body, seq)
	body = binary.BigEndian.AppendUint32(body, uint32(len(addrs)))
	for i, a := range addrs {
		of := byte(OpAccess)
		if writes[i] {
			of |= flagWrite
		}
		body = append(body, of)
		body = binary.BigEndian.AppendUint64(body, a)
	}
	return appendFrame(dst, body)
}

// AppendAck encodes an Ack frame.
func AppendAck(dst []byte, seq uint64, count uint32, queueNs uint64) []byte {
	body := make([]byte, 0, 22)
	body = append(body, FrameAck)
	body = binary.BigEndian.AppendUint64(body, seq)
	body = binary.BigEndian.AppendUint32(body, count)
	body = binary.BigEndian.AppendUint64(body, queueNs)
	return appendFrame(dst, body)
}

// AppendReject encodes a Reject frame.
func AppendReject(dst []byte, seq uint64, code byte, msg string) []byte {
	body := make([]byte, 0, 13+len(msg))
	body = append(body, FrameReject)
	body = binary.BigEndian.AppendUint64(body, seq)
	body = append(body, code)
	body = binary.BigEndian.AppendUint16(body, uint16(len(msg)))
	body = append(body, msg...)
	return appendFrame(dst, body)
}

// AppendBye encodes a Bye frame.
func AppendBye(dst []byte) []byte { return appendFrame(dst, []byte{FrameBye}) }

// AppendDrain encodes a Drain frame.
func AppendDrain(dst []byte) []byte { return appendFrame(dst, []byte{FrameDrain}) }

// ---- decoding ------------------------------------------------------------

// ReadFrame reads one length-prefixed frame body (type byte included)
// from r. It returns ErrFrameTooLarge for oversized announcements and
// io.EOF / io.ErrUnexpectedEOF on truncation; the returned buffer is
// freshly allocated and owned by the caller.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: announced %d bytes", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// DecodeFrame parses one frame body produced by ReadFrame (or an
// Append* encoder without its length prefix). Any structural problem —
// unknown type, short body, record count that disagrees with the
// payload — returns an error wrapping ErrMalformed; DecodeFrame never
// panics on garbage.
func DecodeFrame(body []byte) (Frame, error) {
	var f Frame
	if len(body) == 0 {
		return f, fmt.Errorf("%w: empty body", ErrMalformed)
	}
	f.Type = body[0]
	p := body[1:]
	switch f.Type {
	case FrameHello:
		if len(p) < 7 {
			return f, fmt.Errorf("%w: short hello", ErrMalformed)
		}
		f.Version = p[0]
		f.Tenant = binary.BigEndian.Uint32(p[1:5])
		n := int(binary.BigEndian.Uint16(p[5:7]))
		if len(p) != 7+n {
			return f, fmt.Errorf("%w: hello id length", ErrMalformed)
		}
		f.ClientID = string(p[7:])
	case FrameHelloAck:
		if len(p) < 3 {
			return f, fmt.Errorf("%w: short hello ack", ErrMalformed)
		}
		f.Code = p[0]
		n := int(binary.BigEndian.Uint16(p[1:3]))
		if len(p) != 3+n {
			return f, fmt.Errorf("%w: hello ack msg length", ErrMalformed)
		}
		f.Msg = string(p[3:])
	case FrameBatch:
		if len(p) < 12 {
			return f, fmt.Errorf("%w: short batch header", ErrMalformed)
		}
		f.Seq = binary.BigEndian.Uint64(p[:8])
		count := binary.BigEndian.Uint32(p[8:12])
		p = p[12:]
		// A count the remaining payload cannot possibly hold (records
		// are ≥ 9 bytes) is rejected before allocating for it.
		if uint64(count)*9 > uint64(len(p)) {
			return f, fmt.Errorf("%w: batch count %d exceeds payload", ErrMalformed, count)
		}
		recs := make([]Record, 0, count)
		for i := uint32(0); i < count; i++ {
			if len(p) < 9 {
				return f, fmt.Errorf("%w: short record", ErrMalformed)
			}
			of := p[0]
			r := Record{Op: of &^ flagWrite, Write: of&flagWrite != 0}
			r.Addr = binary.BigEndian.Uint64(p[1:9])
			p = p[9:]
			switch r.Op {
			case OpAccess:
			case OpAlloc, OpFree:
				if len(p) < 8 {
					return f, fmt.Errorf("%w: short range record", ErrMalformed)
				}
				r.Size = binary.BigEndian.Uint64(p[:8])
				p = p[8:]
			default:
				return f, fmt.Errorf("%w: bad op %d", ErrMalformed, r.Op)
			}
			recs = append(recs, r)
		}
		if len(p) != 0 {
			return f, fmt.Errorf("%w: %d trailing bytes after batch", ErrMalformed, len(p))
		}
		f.Records = recs
	case FrameAck:
		if len(p) != 20 {
			return f, fmt.Errorf("%w: ack body length %d", ErrMalformed, len(p))
		}
		f.Seq = binary.BigEndian.Uint64(p[:8])
		f.Count = binary.BigEndian.Uint32(p[8:12])
		f.QueueNs = binary.BigEndian.Uint64(p[12:20])
	case FrameReject:
		if len(p) < 11 {
			return f, fmt.Errorf("%w: short reject", ErrMalformed)
		}
		f.Seq = binary.BigEndian.Uint64(p[:8])
		f.Code = p[8]
		n := int(binary.BigEndian.Uint16(p[9:11]))
		if len(p) != 11+n {
			return f, fmt.Errorf("%w: reject msg length", ErrMalformed)
		}
		f.Msg = string(p[11:])
	case FrameBye, FrameDrain:
		if len(p) != 0 {
			return f, fmt.Errorf("%w: unexpected body on control frame", ErrMalformed)
		}
	default:
		return f, fmt.Errorf("%w: unknown frame type 0x%02x", ErrMalformed, f.Type)
	}
	return f, nil
}

// ReadDecode reads and decodes the next frame from r; the composition
// every receive loop uses.
func ReadDecode(r *bufio.Reader) (Frame, error) {
	body, err := ReadFrame(r)
	if err != nil {
		return Frame{}, err
	}
	return DecodeFrame(body)
}
