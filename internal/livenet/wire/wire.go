// Package wire encodes what a live deployment sends: the registry
// algorithms' messages and the core.Envelope that carries them between
// levels, which is all gridmutex.New builds. The UDP transport uses it
// (the paper's implementation is C over UDP). The format is a one-byte type
// tag followed by fixed-width big-endian fields; variable-length payloads
// (Suzuki-Kasami's LN array and queue, nested messages) carry explicit
// length prefixes.
package wire

import (
	"encoding/binary"
	"fmt"

	"gridmutex/internal/algorithms/central"
	"gridmutex/internal/algorithms/naimitrehel"
	"gridmutex/internal/algorithms/raymond"
	"gridmutex/internal/algorithms/ricartagrawala"
	"gridmutex/internal/algorithms/ring"
	"gridmutex/internal/algorithms/suzukikasami"
	"gridmutex/internal/core"
	"gridmutex/internal/mutex"
)

// Type tags. Stable on the wire: never renumber, only append.
const (
	tagNaimiRequest byte = iota + 1
	tagNaimiToken
	tagRingRequest
	tagRingToken
	tagSuzukiRequest
	tagSuzukiToken
	tagRaymondRequest
	tagRaymondPrivilege
	tagCentralRequest
	tagCentralGrant
	tagCentralRelease
	tagCentralNudge
	tagEnvelope
	// 14-18 carried the simulator-only adaptive protocol: retired, never reused.
	_
	_
	_
	_
	_
	tagRARequest
	tagRAReply
)

// MaxSliceLen bounds array payloads (a Suzuki token for 100k members is
// far beyond anything this repository deploys; the bound exists to fail
// fast on corrupt input).
const MaxSliceLen = 1 << 20

// Encode serializes m, appending to dst, and returns the extended slice.
func Encode(dst []byte, m mutex.Message) ([]byte, error) {
	switch v := m.(type) {
	case naimitrehel.Request:
		dst = append(dst, tagNaimiRequest)
		return appendID(dst, v.Origin), nil
	case naimitrehel.Token:
		return append(dst, tagNaimiToken), nil
	case ring.Request:
		return append(dst, tagRingRequest), nil
	case ring.Token:
		return append(dst, tagRingToken), nil
	case suzukikasami.Request:
		dst = append(dst, tagSuzukiRequest)
		return appendI64(dst, v.Seq), nil
	case suzukikasami.Token:
		dst = append(dst, tagSuzukiToken)
		dst = appendU32(dst, uint32(len(v.LN)))
		for _, ln := range v.LN {
			dst = appendI64(dst, ln)
		}
		dst = appendU32(dst, uint32(len(v.Q)))
		for _, q := range v.Q {
			dst = appendID(dst, q)
		}
		return dst, nil
	case raymond.Request:
		return append(dst, tagRaymondRequest), nil
	case raymond.Privilege:
		return append(dst, tagRaymondPrivilege), nil
	case central.Request:
		return append(dst, tagCentralRequest), nil
	case central.Grant:
		return append(dst, tagCentralGrant), nil
	case central.ReleaseMsg:
		return append(dst, tagCentralRelease), nil
	case central.Nudge:
		return append(dst, tagCentralNudge), nil
	case core.Envelope:
		dst = append(dst, tagEnvelope, byte(v.Level))
		return Encode(dst, v.Inner)
	case ricartagrawala.Request:
		dst = append(dst, tagRARequest)
		return appendI64(dst, v.Clock), nil
	case ricartagrawala.Reply:
		return append(dst, tagRAReply), nil
	default:
		return nil, fmt.Errorf("wire: unencodable message type %T", m)
	}
}

// Decode parses one message from b, returning it and the number of bytes
// consumed.
func Decode(b []byte) (mutex.Message, int, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("wire: empty buffer")
	}
	tag, rest := b[0], b[1:]
	n := 1
	switch tag {
	case tagNaimiRequest:
		id, k, err := readID(rest)
		if err != nil {
			return nil, 0, err
		}
		return naimitrehel.Request{Origin: id}, n + k, nil
	case tagNaimiToken:
		return naimitrehel.Token{}, n, nil
	case tagRingRequest:
		return ring.Request{}, n, nil
	case tagRingToken:
		return ring.Token{}, n, nil
	case tagSuzukiRequest:
		seq, k, err := readI64(rest)
		if err != nil {
			return nil, 0, err
		}
		return suzukikasami.Request{Seq: seq}, n + k, nil
	case tagSuzukiToken:
		lnLen, k, err := readU32(rest)
		if err != nil {
			return nil, 0, err
		}
		rest, n = rest[k:], n+k
		if lnLen > MaxSliceLen {
			return nil, 0, fmt.Errorf("wire: LN length %d exceeds bound", lnLen)
		}
		ln := make([]int64, lnLen)
		for i := range ln {
			v, k, err := readI64(rest)
			if err != nil {
				return nil, 0, err
			}
			ln[i], rest, n = v, rest[k:], n+k
		}
		qLen, k, err := readU32(rest)
		if err != nil {
			return nil, 0, err
		}
		rest, n = rest[k:], n+k
		if qLen > MaxSliceLen {
			return nil, 0, fmt.Errorf("wire: queue length %d exceeds bound", qLen)
		}
		q := make([]mutex.ID, qLen)
		for i := range q {
			v, k, err := readID(rest)
			if err != nil {
				return nil, 0, err
			}
			q[i], rest, n = v, rest[k:], n+k
		}
		if qLen == 0 {
			q = nil
		}
		return suzukikasami.Token{LN: ln, Q: q}, n, nil
	case tagRaymondRequest:
		return raymond.Request{}, n, nil
	case tagRaymondPrivilege:
		return raymond.Privilege{}, n, nil
	case tagCentralRequest:
		return central.Request{}, n, nil
	case tagCentralGrant:
		return central.Grant{}, n, nil
	case tagCentralRelease:
		return central.ReleaseMsg{}, n, nil
	case tagCentralNudge:
		return central.Nudge{}, n, nil
	case tagEnvelope:
		if len(rest) < 1 {
			return nil, 0, fmt.Errorf("wire: truncated envelope")
		}
		level := core.Level(rest[0])
		inner, k, err := Decode(rest[1:])
		if err != nil {
			return nil, 0, err
		}
		return core.Envelope{Level: level, Inner: inner}, n + 1 + k, nil
	case tagRARequest:
		c, k, err := readI64(rest)
		if err != nil {
			return nil, 0, err
		}
		return ricartagrawala.Request{Clock: c}, n + k, nil
	case tagRAReply:
		return ricartagrawala.Reply{}, n, nil
	default:
		return nil, 0, fmt.Errorf("wire: unknown message tag %d", tag)
	}
}

// DecodeFull parses one message and requires the buffer to be fully
// consumed — the datagram contract.
func DecodeFull(b []byte) (mutex.Message, error) {
	m, n, err := Decode(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %s", len(b)-n, m.Kind())
	}
	return m, nil
}

func appendID(dst []byte, id mutex.ID) []byte { return appendU32(dst, uint32(int32(id))) }

func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

func appendI64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

func readID(b []byte) (mutex.ID, int, error) {
	v, n, err := readU32(b)
	return mutex.ID(int32(v)), n, err
}

func readU32(b []byte) (uint32, int, error) {
	if len(b) < 4 {
		return 0, 0, fmt.Errorf("wire: truncated u32")
	}
	return binary.BigEndian.Uint32(b), 4, nil
}

func readI64(b []byte) (int64, int, error) {
	if len(b) < 8 {
		return 0, 0, fmt.Errorf("wire: truncated i64")
	}
	// Negative values round-trip through two's complement.
	return int64(binary.BigEndian.Uint64(b)), 8, nil
}
