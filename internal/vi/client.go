package vi

import (
	"bytes"

	"vinfra/internal/sim"
)

// ClientProgram is the user program running on an abstract mobile client
// (Section 1.2). From its perspective the virtual infrastructure behaves
// like a collision-prone wireless network of reliable, immobile devices:
// each virtual round it may broadcast one message and receives whatever the
// virtual channel delivered in the previous virtual round, together with a
// collision indication.
type ClientProgram interface {
	// Step is called once per virtual round with the previous virtual
	// round's reception; it returns the message to broadcast in this
	// virtual round's client phase, or nil to listen.
	Step(vround int, recv []Message, collision bool) *Message
}

// ClientFunc adapts a function to ClientProgram.
type ClientFunc func(vround int, recv []Message, collision bool) *Message

// Step implements ClientProgram.
func (f ClientFunc) Step(vround int, recv []Message, collision bool) *Message {
	return f(vround, recv, collision)
}

// Client runs a ClientProgram against the virtual broadcast service. It
// implements sim.Node: it broadcasts in the client phase and listens in the
// client and vn phases; all emulation-protocol traffic is invisible to it.
//
// So its radio is off for the rest of the virtual round: a Receive outside
// the client phase ends by sleeping (sim.Env.SleepUntil) until the next
// client phase, and the engine neither calls the client nor computes a
// reception for it in between. The ClientProgram cannot tell — it is
// stepped once per virtual round, in the client phase, with what the two
// listening phases heard — and neither can anything else: the phase checks
// in Transmit and Receive make every round slept through a no-op when the
// client is awake for it after all, as it is right after a restore.
type Client struct {
	env  sim.Env
	d    *Deployment
	prog ClientProgram

	sentPayload []byte
	sentThis    bool
	recv        []Message
	collision   bool
}

var _ sim.Node = (*Client)(nil)

// NewClient builds a client for the deployment.
func (d *Deployment) NewClient(env sim.Env, prog ClientProgram) *Client {
	return &Client{env: env, d: d, prog: prog}
}

// Transmit implements sim.Node.
func (c *Client) Transmit(r sim.Round) sim.Message {
	vr0, phase, _ := c.d.timing.Decompose(r)
	if phase != PhaseClient {
		return nil
	}
	vr := vr0 + 1
	out := c.prog.Step(vr, c.recv, c.collision)
	c.recv = nil
	c.collision = false
	c.sentThis = out != nil
	if out == nil {
		return nil
	}
	c.sentPayload = out.Payload
	return ClientMsg{Payload: out.Payload}
}

// Receive implements sim.Node.
func (c *Client) Receive(r sim.Round, rx sim.Reception) {
	vr0, phase, _ := c.d.timing.Decompose(r)
	switch phase {
	case PhaseClient:
		skippedOwn := false
		for _, m := range rx.Msgs {
			msg, ok := m.(ClientMsg)
			if !ok {
				continue
			}
			// The loopback copy of the client's own broadcast is not a
			// reception.
			if c.sentThis && !skippedOwn && bytes.Equal(msg.Payload, c.sentPayload) {
				skippedOwn = true
				continue
			}
			c.recv = append(c.recv, Message{Payload: msg.Payload})
		}
		if rx.Collision {
			c.collision = true
		}
	case PhaseVN:
		for _, m := range rx.Msgs {
			if msg, ok := m.(VNMsg); ok {
				c.recv = append(c.recv, Message{Payload: msg.Payload})
			}
		}
		if rx.Collision {
			c.collision = true
		}
	default:
		// Emulation-protocol phases are invisible to clients.
	}
	if phase != PhaseClient {
		// Nothing on the air concerns a client until the next virtual round
		// begins.
		c.env.SleepUntil(sim.Round((vr0 + 1) * c.d.timing.RoundsPerVRound()))
	}
}
