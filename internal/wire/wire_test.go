package wire

import (
	"bytes"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 14, 1<<21 - 1, 1 << 35, math.MaxUint64}
	for _, x := range cases {
		enc := AppendUvarint(nil, x)
		if len(enc) != UvarintSize(x) {
			t.Errorf("UvarintSize(%d) = %d, encoded %d bytes", x, UvarintSize(x), len(enc))
		}
		d := Dec(enc)
		if got := d.Uvarint(); got != x || d.Finish() != nil {
			t.Errorf("round trip %d -> %d (err %v)", x, got, d.Finish())
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(x int64) bool {
		enc := AppendVarint(nil, x)
		if len(enc) != VarintSize(x) {
			return false
		}
		d := Dec(enc)
		return d.Varint() == x && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixedRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, fl float64, b bool, p []byte, s string) bool {
		var enc []byte
		enc = AppendUvarint(enc, u)
		enc = AppendVarint(enc, i)
		enc = AppendFloat64(enc, fl)
		enc = AppendBool(enc, b)
		enc = AppendBytes(enc, p)
		enc = AppendString(enc, s)
		d := Dec(enc)
		gu, gi, gf, gb := d.Uvarint(), d.Varint(), d.Float64(), d.Bool()
		gp, gs := d.Bytes(), d.String()
		if d.Finish() != nil {
			return false
		}
		sameF := gf == fl || (math.IsNaN(gf) && math.IsNaN(fl))
		return gu == u && gi == i && sameF && gb == b &&
			bytes.Equal(gp, p) && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalUvarintRejected(t *testing.T) {
	// 0x80 0x00 is value 0 in two bytes — non-minimal, must be rejected.
	for _, enc := range [][]byte{
		{0x80, 0x00},
		{0xff, 0x00},
		{0x80}, // truncated
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // overflow (bit 70)
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // overflows bit 64
	} {
		d := Dec(enc)
		d.Uvarint()
		if d.Err() == nil {
			t.Errorf("malformed uvarint % x accepted", enc)
		}
	}
	// Max uint64 is exactly ten bytes with a final 0x01 — legal.
	d := Dec([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	if got := d.Uvarint(); got != math.MaxUint64 || d.Finish() != nil {
		t.Errorf("max uvarint = %d, err %v", got, d.Finish())
	}
}

func TestDecoderBytesLengthValidated(t *testing.T) {
	// A length prefix claiming more bytes than remain must fail without
	// allocating.
	enc := AppendUvarint(nil, 1<<40)
	d := Dec(enc)
	if b := d.Bytes(); b != nil || d.Err() == nil {
		t.Error("oversized length prefix accepted")
	}
}

func TestDecoderCountBounded(t *testing.T) {
	// A count of 3 over two remaining bytes fails, reads as 0, and the
	// failure sticks for every read after it.
	d := Dec([]byte{0x03, 0x01, 0x01})
	if n := d.Count(); n != 0 || d.Err() == nil {
		t.Fatalf("Count = %d, err %v; want 0 and a failed decoder", n, d.Err())
	}
	if b := d.Bool(); b || d.Err() == nil {
		t.Error("decoder recovered after a count past the end")
	}
	d = Dec([]byte{0x02, 0x01, 0x01})
	if n := d.Count(); n != 2 || d.Err() != nil {
		t.Errorf("Count = %d, err %v; want 2 with two bytes left", n, d.Err())
	}
}

func TestDecoderBoolCanonical(t *testing.T) {
	d := Dec([]byte{2})
	d.Bool()
	if d.Err() == nil {
		t.Error("Bool accepted a byte other than 0/1")
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	d := Dec([]byte{0x00, 0x07})
	d.Uvarint()
	if err := d.Finish(); err == nil {
		t.Error("Finish accepted trailing bytes")
	}
}

func TestZeroDecoderDecodesEmpty(t *testing.T) {
	var d Decoder
	if err := d.Finish(); err != nil {
		t.Errorf("zero decoder Finish = %v", err)
	}
}

func TestBytesViewIsZeroCopy(t *testing.T) {
	enc := AppendBytes(nil, []byte("abcdef"))
	d := Dec(enc)
	v := d.Bytes()
	if &v[0] != &enc[len(enc)-6] {
		t.Error("Bytes copied instead of returning a view")
	}
}

func TestDigestMatchesStdlibFNV(t *testing.T) {
	for _, s := range []string{"", "a", "hello wire", "\x00\x01\x02"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got := DigestOf([]byte(s)); uint64(got) != h.Sum64() {
			t.Errorf("DigestOf(%q) = %#x, fnv = %#x", s, got, h.Sum64())
		}
	}
}

func TestDigestFoldEquivalence(t *testing.T) {
	// Folding in segments equals one pass.
	whole := DigestOf([]byte("abcdef"))
	seg := NewDigest().FoldBytes([]byte("abc")).FoldBytes([]byte("def"))
	if whole != seg {
		t.Error("segmented fold differs from one-pass fold")
	}
	// FoldUint64 equals folding the eight little-endian bytes.
	x := uint64(0x0123456789abcdef)
	var le [8]byte
	for i := range le {
		le[i] = byte(x >> (8 * i))
	}
	if NewDigest().FoldUint64(x) != NewDigest().FoldBytes(le[:]) {
		t.Error("FoldUint64 differs from folding LE bytes")
	}
}

func TestBufPoolReuse(t *testing.T) {
	b := GetBuf()
	*b = AppendString(*b, "scratch")
	PutBuf(b)
	c := GetBuf()
	defer PutBuf(c)
	if len(*c) != 0 {
		t.Error("pooled buffer not reset to empty")
	}
}

// FuzzDecoder drives the decoder over arbitrary bytes with a fixed read
// script: it must never panic, and every accepted field must re-encode to
// the bytes it was decoded from (canonical encodings round-trip exactly).
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBytes(AppendVarint(AppendUvarint(nil, 300), -7), []byte("xyz")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2, 'h', 'i', 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := Dec(data)
		u := d.Uvarint()
		i := d.Varint()
		b := d.Bytes()
		fl := d.Float64()
		bo := d.Bool()
		if d.Err() != nil {
			return
		}
		// Re-encode what was decoded: it must reproduce the consumed
		// prefix byte for byte.
		var enc []byte
		enc = AppendUvarint(enc, u)
		enc = AppendVarint(enc, i)
		enc = AppendBytes(enc, b)
		enc = AppendFloat64(enc, fl)
		enc = AppendBool(enc, bo)
		if !bytes.Equal(enc, data[:len(data)-d.Rem()]) {
			t.Fatalf("decoded fields re-encode to % x, consumed % x", enc, data[:len(data)-d.Rem()])
		}
	})
}
