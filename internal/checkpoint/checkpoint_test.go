package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

func sampleCheckpoint() Checkpoint {
	return Checkpoint{
		Engine: sim.EngineSnapshot{
			Seed:        42,
			Round:       17,
			Stats:       sim.Stats{Rounds: 17, Transmissions: 120, MaxMessageSize: 64, TotalBytes: 4096, HaloTransmissions: 7},
			ShardCols:   4,
			ShardRows:   2,
			FaultDigest: 0xdeadbeef,
			Nodes: []sim.NodeSnapshot{
				{ID: 0, X: 1.5, Y: -2, Alive: true, RNG: 0x1234, State: []byte{0x01}},
				{ID: 1, X: 0, Y: 3, Alive: false, RNG: 0x5678, Mover: []byte{0x00, 0x02}},
			},
			CrashRounds: []sim.Round{20},
			CrashIDs:    [][]sim.NodeID{{0, 1}},
		},
		Medium: radio.MustMedium(radio.Config{
			Radii: geo.Radii{R1: 10, R2: 20}, Detector: cd.AC{}, GrayZoneDeliveryProb: 0.25, Seed: 42,
		}).AppendFingerprint(nil),
		Monitor: vi.MonitorSnapshot{
			VNodes: []vi.VNodeID{0, 2},
			Tops:   []cha.Instance{5, 3},
			Greens: [][]cha.Instance{{1, 2, 5}, {3}},
		},
		Driver: []byte("driver-state"),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	b := c.AppendTo(nil)
	if len(b) != c.WireSize() {
		t.Fatalf("WireSize = %d, encoded %d bytes", c.WireSize(), len(b))
	}
	got, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendTo(nil), b) {
		t.Fatal("re-encoding the decoded checkpoint changes bytes")
	}
	if !reflect.DeepEqual(got.Engine, c.Engine) || !bytes.Equal(got.Medium, c.Medium) {
		t.Fatal("decoded layers differ from the originals")
	}
}

// TestEncodeDecodeFraming pins the file framing: magic, version, and the
// trailing digest that rejects corruption anywhere in the file.
func TestEncodeDecodeFraming(t *testing.T) {
	c := sampleCheckpoint()
	b := c.Encode()

	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendTo(nil), c.AppendTo(nil)) {
		t.Fatal("framed round trip changes the checkpoint")
	}

	if _, err := Decode([]byte("NOTACKPT")); err == nil {
		t.Fatal("foreign file accepted")
	}
	if _, err := Decode(b[:len(b)-3]); err == nil {
		t.Fatal("truncated file accepted")
	}
	for _, i := range []int{0, len(magic) + 1, len(b) / 2, len(b) - 1} {
		flipped := append([]byte(nil), b...)
		flipped[i] ^= 0x40
		if _, err := Decode(flipped); err == nil {
			t.Fatalf("file with byte %d flipped accepted", i)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	c := sampleCheckpoint()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendTo(nil), c.AppendTo(nil)) {
		t.Fatal("file round trip changes the checkpoint")
	}
}

// TestWriteFileFailureLeavesNoTemp: a write whose rename fails — path is a
// directory — returns the error and leaves neither the temp file nor a
// changed path behind.
func TestWriteFileFailureLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sampleCheckpoint().WriteFile(path); err == nil {
		t.Fatal("WriteFile over a directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the failed write left its temp file behind: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("the failed write changed %s: %v", path, err)
	}
}

// FuzzDecodeCheckpoint covers both decode entry points: the framed file
// decoder and the raw body decoder. No panics; accepted bodies must be
// canonical fixed points.
func FuzzDecodeCheckpoint(f *testing.F) {
	c := sampleCheckpoint()
	f.Add(c.Encode())
	f.Add(c.AppendTo(nil))
	f.Add([]byte{})
	f.Add([]byte("VINFCKPT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := Decode(data); err == nil {
			// A framed decode that succeeds must re-encode to the same file.
			if !bytes.Equal(got.Encode(), data) {
				t.Fatalf("accepted file re-encodes differently")
			}
		}
		got, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		out := got.AppendTo(nil)
		if len(out) != got.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", got.WireSize(), len(out))
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted body re-encodes differently")
		}
	})
}
