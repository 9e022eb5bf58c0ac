package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"

	"dlacep/internal/event"
)

// Client is a minimal client for the line protocol, used by tests and the
// dlacep-serve example client mode.
type Client struct {
	conn net.Conn
	w    *bufio.Writer
	r    *bufio.Reader
}

// Dial connects to a DLACEP server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient speaks the line protocol over an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, w: bufio.NewWriter(conn), r: bufio.NewReader(conn)}
}

// Send transmits one event (the ID is assigned server-side).
func (c *Client) Send(ev event.Event) error {
	parts := []string{ev.Type, strconv.FormatInt(ev.Ts, 10)}
	for _, a := range ev.Attrs {
		parts = append(parts, strconv.FormatFloat(a, 'g', -1, 64))
	}
	if _, err := c.w.WriteString(strings.Join(parts, ",")); err != nil {
		return err
	}
	return c.w.WriteByte('\n')
}

// Sync pushes buffered events to the server without ending the stream —
// what a long-lived streaming client calls between bursts (Send only
// buffers; Flush also asks for the summary).
func (c *Client) Sync() error {
	return c.w.Flush()
}

// Flush asks the server to close the stream logically and emit the summary.
func (c *Client) Flush() error {
	if _, err := c.w.WriteString("FLUSH\n"); err != nil {
		return err
	}
	return c.w.Flush()
}

// Message is one server response: exactly one field is set.
type Message struct {
	Match   *matchMsg
	Summary *summaryMsg
	Err     string
}

// Recv reads the next server message. It flushes any buffered writes first.
func (c *Client) Recv() (*Message, error) {
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.Read()
}

// Read reads the next server message without touching the write side, so
// one goroutine can Read while another Sends and Flushes.
func (c *Client) Read() (*Message, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var out wireOut
	if err := json.Unmarshal(line, &out); err != nil {
		return nil, fmt.Errorf("server sent malformed message %q: %w", line, err)
	}
	return &Message{Match: out.Match, Summary: out.Summary, Err: out.Error}, nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.w.Flush()
	return c.conn.Close()
}

// MatchIDs returns the match's event IDs (nil if not a match message).
func (m *Message) MatchIDs() []uint64 {
	if m.Match == nil {
		return nil
	}
	return m.Match.IDs
}
