package radio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// FuzzDeliverMatchesReference holds the scan, the grid and the unforced
// medium to referenceDeliver, bit for bit, on rounds decoded from arbitrary
// bytes (see decodeRound): up to 64 receivers and 48 transmissions, any
// radii with R1 <= R2, gray-zone delivery off or on, every detector class
// (and tellsR1, which reads lostR1 apart from lostR2), every in-tree
// adversary, transmitting and dead receivers, duplicated
// senders and the silent round.
//
//	go test ./internal/radio/ -run xxx -fuzz FuzzDeliverMatchesReference -fuzztime 10s
func FuzzDeliverMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// Two nodes transmitting over each other, one of them twice, a dead
	// listener between them.
	f.Add(encodeRound([fuzzHeader]byte{2: 36, 3: 64, 5: 1, 7: 1},
		[]sim.NodeInfo{
			{ID: 0, At: geo.Point{X: 0}, Alive: true},
			{ID: 1, At: geo.Point{X: 8}, Alive: true},
			{ID: 2, At: geo.Point{X: 4}},
			{ID: 3, At: geo.Point{X: 15, Y: 2}, Alive: true},
		},
		[]sim.Transmission{
			{Sender: 0, From: geo.Point{X: 0}},
			{Sender: 1, From: geo.Point{X: 8}},
			{Sender: 0, From: geo.Point{X: 1, Y: -3}},
		}))
	// The metro client round as the devices of its centre 4x4 locations
	// see it: their 64 receivers and every ping within R2 of any of them,
	// renumbered to fit the encoding's seven-bit IDs.
	infos, txs, radii := metroRound(0)
	var window []sim.NodeInfo
	renamed := map[sim.NodeID]sim.NodeID{}
	for _, rx := range infos {
		if rx.At.X >= 35 && rx.At.X < 56 && rx.At.Y >= 34 && rx.At.Y < 56 {
			renamed[rx.ID] = sim.NodeID(len(window))
			rx.ID = renamed[rx.ID]
			window = append(window, rx)
		}
	}
	var near []sim.Transmission
	for _, tx := range txs {
		for _, rx := range window {
			if tx.From.Within(rx.At, radii.R2) {
				id, ok := renamed[tx.Sender]
				if !ok {
					id = sim.NodeID(len(window) + len(near))
				}
				tx.Sender = id
				near = append(near, tx)
				break
			}
		}
	}
	if len(window) != 64 || len(near) > 48 {
		f.Fatalf("metro window: %d receivers and %d transmissions, want 64 and at most 48", len(window), len(near))
	}
	for _, hdr := range [][fuzzHeader]byte{
		{2: 36, 3: 64},                           // AC, no adversary: metro-vi itself
		{2: 36, 3: 64, 4: 129, 5: 1, 6: 5, 7: 4}, // gray zone, EventuallyAC, composed adversary
		{2: 36, 3: 64, 5: 2, 6: 9, 7: 3},         // Complete under a partition
		{2: 36, 3: 64, 5: 4, 6: 2, 7: 2},         // tellsR1 under a script
	} {
		f.Add(encodeRound(hdr, window, near))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, txs, rxs := decodeRound(data)
		checkAllModes(t, "fuzzed round", cfg, 2, txs, rxs)
	})
}

// fuzzHeader is the number of bytes decodeRound reads before the nodes:
//
//	0 receivers (mod 65)   1 transmissions (mod 49)
//	2 R1 = 1 + b/4         3 R2 = R1 + R1*b/64
//	4 gray zone: 0 for even b, else (b>>1)/127
//	5 detector (mod 5): AC, EventuallyAC, Complete, Null, tellsR1
//	6 detector and adversary parameter
//	7 adversary (mod 5): none, RandomLoss, Script, Partition, Compose
//	8 medium seed
//
// Then 5 bytes per receiver — ID (low 7 bits; the high bit marks it dead),
// X and Y — and 5 per transmission: sender (low 7 bits; the high bit means
// the origin is the coordinates that follow, otherwise it is where the first
// receiver with that ID stands, if any), X and Y. A coordinate is a
// big-endian int16 in 256ths. Bytes past the end read as zero.
const fuzzHeader = 9

func decodeRound(data []byte) (Config, []sim.Transmission, []sim.NodeInfo) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	point := func() geo.Point {
		x := int16(uint16(next())<<8 | uint16(next()))
		y := int16(uint16(next())<<8 | uint16(next()))
		return geo.Point{X: float64(x) / 256, Y: float64(y) / 256}
	}
	var h [fuzzHeader]byte
	for i := range h {
		h[i] = next()
	}
	r1 := 1 + float64(h[2])/4
	cfg := Config{Radii: geo.Radii{R1: r1, R2: r1 + r1*float64(h[3])/64}, Seed: int64(h[8])}
	if h[4]&1 == 1 {
		cfg.GrayZoneDeliveryProb = float64(h[4]>>1) / 127
	}
	param := h[6]
	fpr := float64(param>>2) / 63
	switch h[5] % 5 {
	case 0:
		cfg.Detector = cd.AC{}
	case 1:
		cfg.Detector = cd.EventuallyAC{Racc: sim.Round(param % 3), FalsePositiveRate: fpr}
	case 2:
		cfg.Detector = cd.Complete{FalsePositiveRate: fpr}
	case 3:
		cfg.Detector = cd.Null{}
	default:
		cfg.Detector = tellsR1{}
	}

	rxs := make([]sim.NodeInfo, int(h[0])%65)
	for i := range rxs {
		id := next()
		rxs[i] = sim.NodeInfo{ID: sim.NodeID(id & 0x7f), Alive: id&0x80 == 0, At: point()}
	}
	txs := make([]sim.Transmission, int(h[1])%49)
	for j := range txs {
		s := next()
		txs[j] = sim.Transmission{Sender: sim.NodeID(s & 0x7f), From: point(), Msg: fmt.Sprintf("m%d", j)}
		if s&0x80 != 0 {
			continue
		}
		for _, rx := range rxs {
			if rx.ID == txs[j].Sender {
				txs[j].From = rx.At
				break
			}
		}
	}

	// Script and Partition name the round's own nodes, drawn by the
	// parameter, so their directives land.
	ids := make([]sim.NodeID, 0, len(rxs)+len(txs)+1)
	for _, rx := range rxs {
		ids = append(ids, rx.ID)
	}
	for _, tx := range txs {
		ids = append(ids, tx.Sender)
	}
	ids = append(ids, 0)
	rng := rand.New(rand.NewSource(int64(param)))
	pick := func() sim.NodeID { return ids[rng.Intn(len(ids))] }
	until := sim.Round(param % 3)
	script := func() *Script {
		s := &Script{}
		for i := 0; i < 6; i++ {
			r := sim.Round(rng.Intn(2))
			s.Drop(r, pick(), pick())
			s.Collide(r, pick())
			if i%3 == 0 {
				s.DropAll(r, pick())
			}
		}
		return s
	}
	partition := func() *Partition {
		var group []sim.NodeID
		for _, id := range ids {
			if (int(id)+int(param))%3 == 0 {
				group = append(group, id)
			}
		}
		return NewPartition(until+1, group...)
	}
	switch h[7] % 5 {
	case 1:
		cfg.Adversary = NewRandomLoss(0.5, fpr, until, int64(param))
	case 2:
		cfg.Adversary = script()
	case 3:
		cfg.Adversary = partition()
	case 4:
		cfg.Adversary = Compose{NewRandomLoss(0.3, fpr, until+1, int64(param)), script(), partition()}
	}
	return cfg, txs, rxs
}

// tellsR1 is a detector that tells the two ground truths apart, which no cd
// detector does (each reports on lostR1 || lostR2): ± on a loss within R1,
// and on a loss within R2 alone with probability one half. A medium that
// got lostR1 wrong where lostR2 holds would pass every cd detector, but not
// this one.
type tellsR1 struct{}

func (tellsR1) Report(_ sim.Round, lostR1, lostR2, _ bool, rnd func() float64) bool {
	return lostR1 || lostR2 && rnd() < 0.5
}

// encodeRound is decodeRound's inverse for the node lists: it writes hdr
// with the counts filled in, then every receiver and every transmission, the
// latter always with explicit coordinates, rounded to 256ths.
func encodeRound(hdr [fuzzHeader]byte, rxs []sim.NodeInfo, txs []sim.Transmission) []byte {
	hdr[0], hdr[1] = byte(len(rxs)), byte(len(txs))
	b := hdr[:]
	point := func(p geo.Point) {
		x, y := uint16(int16(math.Round(p.X*256))), uint16(int16(math.Round(p.Y*256)))
		b = append(b, byte(x>>8), byte(x), byte(y>>8), byte(y))
	}
	for _, rx := range rxs {
		id := byte(rx.ID) & 0x7f
		if !rx.Alive {
			id |= 0x80
		}
		b = append(b, id)
		point(rx.At)
	}
	for _, tx := range txs {
		b = append(b, byte(tx.Sender)&0x7f|0x80)
		point(tx.From)
	}
	return b
}
