// Package apps implements application services on top of the virtual
// infrastructure — the workloads the paper's introduction motivates:
// reconfigurable atomic memory [13], location tracking [36], and
// coordination services (mutual exclusion, robot waypoints) [4, 27].
//
// Each service is a deterministic virtual node program (vi.Program) plus
// client-side helpers. Because a virtual node is a single replicated state
// machine with an agreed input history, operations that reach it are
// trivially linearized in history order; the emulation layer supplies the
// fault tolerance.
//
// States and payloads are canonical wire encodings (internal/wire): equal
// states encode to equal bytes by construction, which is the determinism
// property replica state comparison depends on — the old gob-based codec
// only guaranteed it under conventions (no maps, fixed field order).
package apps

import (
	"vinfra/internal/geo"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// RegisterState is the state of the atomic register virtual node: the
// current value and a version counter incremented by every applied write.
type RegisterState struct {
	Value   string
	Version int
}

func encodeRegisterState(dst []byte, s RegisterState) []byte {
	dst = wire.AppendString(dst, s.Value)
	return wire.AppendUvarint(dst, uint64(s.Version))
}

func decodeRegisterState(d *wire.Decoder) (RegisterState, error) {
	var s RegisterState
	s.Value = d.String()
	s.Version = int(d.Uvarint())
	return s, d.Err()
}

// RegisterWrite builds the client message writing value to the register.
func RegisterWrite(value string) *vi.Message {
	p := append([]byte{tagRegisterWrite}, value...)
	return &vi.Message{Payload: p}
}

// ParseRegisterReply parses a register broadcast into its version and
// value.
func ParseRegisterReply(payload []byte) (version int, value string, ok bool) {
	d, ok := payloadBody(payload, tagRegisterReply)
	if !ok {
		return 0, "", false
	}
	version = int(d.Uvarint())
	value = d.String()
	if d.Finish() != nil {
		return 0, "", false
	}
	return version, value, true
}

// RegisterProgram returns virtual node v's atomic-register program, a
// vi.DeploymentConfig.Program. The register applies writes in the agreed
// history order (ties within a round broken by payload order, which the
// agreement makes identical at every replica) and broadcasts its current
// version and value whenever it is scheduled.
func RegisterProgram(v vi.VNodeID, sched vi.Schedule) vi.Program {
	return vi.Codec[RegisterState]{
		InitState: func(vi.VNodeID, geo.Point) RegisterState {
			return RegisterState{}
		},
		Step: func(s RegisterState, vround int, in vi.RoundInput) RegisterState {
			for _, m := range in.Msgs {
				if len(m) > 0 && m[0] == tagRegisterWrite {
					s.Value = string(m[1:])
					s.Version++
				}
			}
			return s
		},
		Out: func(s RegisterState, vround int) *vi.Message {
			if !sched.ScheduledIn(v, vround-1) {
				return nil
			}
			p := []byte{tagRegisterReply}
			p = wire.AppendUvarint(p, uint64(s.Version))
			p = wire.AppendString(p, s.Value)
			return &vi.Message{Payload: p}
		},
		EncodeState: encodeRegisterState,
		DecodeState: decodeRegisterState,
	}
}

// RegisterReader is a client program that records every register broadcast
// it hears. Reads are "listen for the next reply": the register broadcasts
// its state every time it is scheduled.
type RegisterReader struct {
	// Observed holds (version, value) pairs in reception order.
	Observed []RegisterObservation
}

// RegisterObservation is one register broadcast seen by a reader.
type RegisterObservation struct {
	VRound  int
	Version int
	Value   string
}

// Step implements vi.ClientProgram.
func (r *RegisterReader) Step(vround int, recv []vi.Message, collision bool) *vi.Message {
	for _, m := range recv {
		if ver, val, ok := ParseRegisterReply(m.Payload); ok {
			r.Observed = append(r.Observed, RegisterObservation{VRound: vround, Version: ver, Value: val})
		}
	}
	return nil
}

// RegisterWriter is a client program that issues one write per entry of
// Writes, at the virtual rounds given by their keys, and collects replies
// like a reader.
type RegisterWriter struct {
	// Writes maps virtual round -> value to write in that round.
	Writes map[int]string
	RegisterReader
}

// Step implements vi.ClientProgram.
func (w *RegisterWriter) Step(vround int, recv []vi.Message, collision bool) *vi.Message {
	w.RegisterReader.Step(vround, recv, collision)
	if v, ok := w.Writes[vround]; ok {
		return RegisterWrite(v)
	}
	return nil
}
