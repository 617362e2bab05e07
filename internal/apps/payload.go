package apps

import "vinfra/internal/wire"

// Every application payload is a wire encoding beginning with a one-byte
// kind tag; the rest is the kind's fixed field sequence. Tags are unique
// across the package so payloads from different services can share a
// virtual channel without ambiguity (the old string prefixes "REGW|",
// "LKR|", ... gave the same guarantee at five bytes apiece plus a
// hand-rolled strconv parser per kind).
const (
	tagRegisterWrite byte = 0x11
	tagRegisterReply byte = 0x12

	tagLockRequest byte = 0x21
	tagLockRelease byte = 0x22
	tagLockGrant   byte = 0x23

	tagBeacon byte = 0x31
	tagDigest byte = 0x32

	tagRouteSend    byte = 0x41
	tagRouteRelay   byte = 0x42
	tagRouteDeliver byte = 0x43
)

// body returns a decoder over payload's field sequence if it carries the
// given kind tag.
func payloadBody(payload []byte, tag byte) (wire.Decoder, bool) {
	if len(payload) == 0 || payload[0] != tag {
		return wire.Decoder{}, false
	}
	return wire.Dec(payload[1:]), true
}
