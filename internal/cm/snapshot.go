// Snapshot support: every Manager in this package implements the
// sim.Snapshotter blob contract (AppendState/RestoreState) so the vi
// emulator can fold its contention manager's position into a checkpoint.
// A restore rebuilds a manager the way it was first built (an emulator's
// through its deployment, with Fixed.Init or Regional.Init) —
// configuration and environment are code — and only the genuinely mutable
// fields travel in the blob.

package cm

import (
	"fmt"

	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// AppendState records the shared election state (the current leader).
func (f *Fixed) AppendState(dst []byte) []byte {
	return wire.AppendVarint(dst, int64(*f.leader))
}

// RestoreState restores the shared election state. Because the leader
// cell is shared by every Fixed of one election, restoring any one of
// them restores them all (they were snapshotted with the same
// value, so repeated restores are idempotent) — and a refused blob must
// move none of them, so the leader is written only once the whole blob
// has decoded.
func (f *Fixed) RestoreState(data []byte) error {
	d := wire.Dec(data)
	leader := sim.NodeID(d.Varint())
	if err := d.Finish(); err != nil {
		return err
	}
	*f.leader = leader
	return nil
}

// AppendState records the contention window and the ballots still to sit
// out.
func (b *Backoff) AppendState(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(b.w))
	return wire.AppendUvarint(dst, uint64(b.deferred))
}

// RestoreState restores the contention window and the ballots still to sit
// out. It refuses a window outside [1, 32] or a deferral longer than one
// ballot — among them a blob written when the second field was a radio
// round — and a refused blob leaves both as they were.
func (b *Backoff) RestoreState(data []byte) error {
	d := wire.Dec(data)
	w, deferred := d.Uvarint(), d.Uvarint()
	if err := d.Finish(); err != nil {
		return err
	}
	if w < 1 || w > wMax || deferred > deferBallots {
		return fmt.Errorf("cm: backoff state (window %d, deferral %d) outside window 1..%d, deferral 0..%d", w, deferred, wMax, deferBallots)
	}
	b.w, b.deferred = int(w), int(deferred)
	return nil
}

// AppendState delegates to the embedded Backoff (eligibility is a pure
// function of position and configuration).
func (m *Regional) AppendState(dst []byte) []byte {
	return m.b.AppendState(dst)
}

// RestoreState delegates to the embedded Backoff.
func (m *Regional) RestoreState(data []byte) error {
	return m.b.RestoreState(data)
}
