package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"
)

// Message kinds of the wire protocol. Every frame is one JSON object on one
// line; unknown fields are ignored so the protocol can grow.
const (
	msgHello = "hello" // coordinator -> agent: game parameters + identity
	msgToken = "token" // coordinator -> agent: external loads + current row
	msgRow   = "row"   // agent -> coordinator: the row the device plays
	msgDone  = "done"  // coordinator -> agent: final matrix + verdicts
	msgAck   = "ack"   // agent -> coordinator: final acknowledgement
)

// message is the single frame type of the protocol; fields are populated
// according to Type.
//
// User deliberately has no omitempty: user 0 is a legitimate identity, and
// eliding it would make "hello for user 0" indistinguishable from a hello
// missing the field on the wire — the same bug class as the engine
// protocol's job seed. The frame bytes are pinned in protocol tests.
type message struct {
	Type string `json:"type"`
	// hello
	User     int `json:"user"`
	Channels int `json:"channels,omitempty"`
	Radios   int `json:"radios,omitempty"`
	// token
	Loads []int `json:"loads,omitempty"`
	// token (current) and row (proposal)
	Row []int `json:"row,omitempty"`
	// done
	Matrix    [][]int `json:"matrix,omitempty"`
	NE        bool    `json:"ne,omitempty"`
	Converged bool    `json:"converged,omitempty"`
	Rounds    int     `json:"rounds,omitempty"`
	Moves     int     `json:"moves,omitempty"`
}

// peer wraps one conn with JSON framing and a per-message time bound. The
// bound is one timer per peer, re-armed for each exchange and stopped when
// it completes; on expiry it closes the conn, which fails the pending read
// or write. Setting a read or write deadline per message instead would arm
// a fresh runtime timer per call on in-process pipes, and the last one
// armed keeps the closed pipe reachable until it fires.
type peer struct {
	conn    net.Conn
	enc     *json.Encoder
	dec     *json.Decoder
	timeout time.Duration
	timer   *time.Timer // nil when timeout <= 0
}

func newPeer(conn net.Conn, timeout time.Duration) *peer {
	p := &peer{
		conn:    conn,
		enc:     json.NewEncoder(conn),
		dec:     json.NewDecoder(conn),
		timeout: timeout,
	}
	if timeout > 0 {
		p.timer = time.AfterFunc(timeout, func() { conn.Close() })
		p.timer.Stop()
	}
	return p
}

// exchange runs one read or write under the time bound. When the timer
// fired during op the conn is closed, and the exchange reports the timeout
// whatever op returned.
func (p *peer) exchange(verb, what string, op func() error) error {
	if p.timer == nil {
		if err := op(); err != nil {
			return fmt.Errorf("dist: %s %s: %w", verb, what, err)
		}
		return nil
	}
	p.timer.Reset(p.timeout)
	err := op()
	if !p.timer.Stop() {
		return fmt.Errorf("dist: %s %s: timed out after %v: %w", verb, what, p.timeout, os.ErrDeadlineExceeded)
	}
	if err != nil {
		return fmt.Errorf("dist: %s %s: %w", verb, what, err)
	}
	return nil
}

func (p *peer) send(m *message) error {
	return p.exchange("sending", m.Type, func() error { return p.enc.Encode(m) })
}

// read decodes the next frame, whatever its type; what names the frame
// awaited in errors.
func (p *peer) read(what string) (*message, error) {
	var m message
	if err := p.exchange("awaiting", what, func() error { return p.dec.Decode(&m) }); err != nil {
		return nil, err
	}
	return &m, nil
}

func (p *peer) recv(wantType string) (*message, error) {
	m, err := p.read(wantType)
	if err != nil {
		return nil, err
	}
	if m.Type != wantType {
		return nil, fmt.Errorf("dist: got %q, want %q", m.Type, wantType)
	}
	return m, nil
}
