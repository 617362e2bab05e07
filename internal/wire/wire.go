// Package wire is the deterministic byte-oriented codec behind the
// repository's state plane: proposal values (cha.Value), virtual-node
// states (vi.Codec), emulation wire messages and application payloads are
// all encoded with it.
//
// The paper's cost model (Theorem 14) charges protocols for the bytes they
// actually put on the channel, and its open question (3) asks how small
// state transfer can get — so the reproduction must not pay a
// serialization tax the protocol doesn't have. encoding/gob ships type
// descriptors, reflects, and allocates on every encode; this package
// instead writes length-prefixed varint encodings into caller-supplied
// byte slices, append-style, with no reflection and no framing overhead.
//
// Encodings are canonical by construction: a value has exactly one
// encoding (varints are minimal, field order is fixed by the caller), so
// byte equality is value equality — the property the agreement layer's
// digests and the replicas' state comparison rely on. gob, by contrast,
// is only deterministic under conventions (no maps, same field order),
// which every program had to follow by discipline.
//
// The package is dependency-free and allocation-disciplined: appenders
// write into the caller's slice, the Decoder is a cursor over a borrowed
// slice (Bytes returns zero-copy views), and transient encodings can
// borrow pooled scratch buffers via GetBuf/PutBuf.
package wire

import (
	"errors"
	"math"
	"sync"
)

// MaxVarintLen is the maximum encoded length of a 64-bit varint.
const MaxVarintLen = 10

// --- Appenders ---

// AppendUvarint appends x in minimal base-128 varint form.
func AppendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// AppendVarint appends x zigzag-encoded (small magnitudes stay small).
func AppendVarint(dst []byte, x int64) []byte {
	return AppendUvarint(dst, zigzag(x))
}

// AppendUint64 appends x as a fixed 8-byte little-endian word.
func AppendUint64(dst []byte, x uint64) []byte {
	return append(dst,
		byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
}

// AppendFloat64 appends f's IEEE-754 bits as a fixed 8-byte word. The bit
// pattern is preserved exactly, so the encoding is canonical for any f
// (including negative zero and NaN payloads).
func AppendFloat64(dst []byte, f float64) []byte {
	return AppendUint64(dst, math.Float64bits(f))
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends b length-prefixed (uvarint length, then the bytes).
func AppendBytes(dst, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s length-prefixed, like AppendBytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// --- Size calculators (exact encoded sizes, for single-allocation
// encoding and for Sized wire messages) ---

// UvarintSize returns the encoded length of x.
func UvarintSize(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// VarintSize returns the encoded length of x under AppendVarint.
func VarintSize(x int64) int { return UvarintSize(zigzag(x)) }

// BytesSize returns the encoded length of a length-prefixed byte string of
// n bytes.
func BytesSize(n int) int { return UvarintSize(uint64(n)) + n }

func zigzag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// --- Decoder ---

// ErrMalformed is the sticky error a Decoder reports for any malformed
// input: a truncated field, a varint overflow, or trailing garbage at
// Finish. Decoding adversarial bytes never panics and never allocates
// proportionally to a length prefix — lengths are validated against the
// remaining input before use.
var ErrMalformed = errors.New("wire: malformed input")

// Decoder is a cursor over an encoded byte slice. The zero value decodes
// the empty input; construct with Dec. Methods return zero values once the
// decoder has erred; check Err (or Finish) after the reads.
type Decoder struct {
	buf []byte
	off int
	err error
}

// Dec returns a decoder reading from b. The decoder borrows b: views
// returned by Bytes alias it.
func Dec(b []byte) Decoder { return Decoder{buf: b} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Rem returns the number of undecoded bytes remaining.
func (d *Decoder) Rem() int { return len(d.buf) - d.off }

// Finish returns the sticky error, or ErrMalformed if input remains — a
// complete decode must consume the whole buffer.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return ErrMalformed
	}
	return nil
}

func (d *Decoder) fail() { d.err = ErrMalformed }

// Uvarint decodes a minimal base-128 varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	var shift uint
	for i := d.off; i < len(d.buf); i++ {
		b := d.buf[i]
		if shift == 63 && b > 1 {
			d.fail() // overflows 64 bits
			return 0
		}
		if b < 0x80 {
			if b == 0 && shift > 0 {
				d.fail() // non-minimal encoding
				return 0
			}
			d.off = i + 1
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			d.fail()
			return 0
		}
	}
	d.fail() // truncated
	return 0
}

// Varint decodes a zigzag varint.
func (d *Decoder) Varint() int64 { return unzigzag(d.Uvarint()) }

// Uint64 decodes a fixed 8-byte little-endian word.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Rem() < 8 {
		d.fail()
		return 0
	}
	b := d.buf[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Float64 decodes a fixed 8-byte IEEE-754 word.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bool decodes one byte; only 0 and 1 are legal (canonical encodings have
// exactly one byte pattern per value).
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Rem() < 1 {
		d.fail()
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail()
		return false
	}
	return b == 1
}

// Count decodes an element count for the caller to loop over or size a
// slice by. Every element takes at least one byte, so a count above Rem
// cannot be honest: it fails the decoder and reads as 0, so no caller
// allocates for, or iterates over, elements the input cannot hold.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(d.Rem()) {
		d.fail()
		return 0
	}
	return int(n)
}

// Bytes decodes a length-prefixed byte string as a zero-copy view into the
// decoder's buffer. Callers that retain the result beyond the buffer's
// lifetime must copy it.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Rem()) {
		d.fail()
		return nil
	}
	v := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return v
}

// String decodes a length-prefixed byte string into a fresh string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// --- Pooled scratch buffers ---

// bufPool recycles scratch slices for transient encodings (encode, copy
// out exact-size or measure, return). Pointers to slices avoid the
// interface-boxing allocation sync.Pool would otherwise charge per Put.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// GetBuf borrows an empty scratch buffer from the pool.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a scratch buffer to the pool. The caller must not use the
// buffer (or views into it) afterwards.
func PutBuf(b *[]byte) { bufPool.Put(b) }
