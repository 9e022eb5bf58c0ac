package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dlacep/internal/core"
	"dlacep/internal/event"
	"dlacep/internal/pattern"
	"dlacep/internal/server"
)

// pipeListener hands the server the far end of in-memory net.Pipe
// connections. A pipe buffers nothing, so a peer that writes without
// reading blocks at once instead of after a socket buffer's worth of data.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial connects a new pipe to the listener.
func (l *pipeListener) dial() net.Conn {
	client, srv := net.Pipe()
	l.conns <- srv
	return client
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestStreamMatchHeavyDoesNotDeadlock streams a match-heavy file (five
// matches per B event) to a server over an unbuffered pipe. The server
// writes each event's matches before it reads the next event, so a client
// that sends the whole file before reading blocks on its first write that
// the server does not read, while the server blocks writing matches nobody
// reads; over TCP the same happens once both socket buffers fill. stream
// must finish and print every match.
func TestStreamMatchHeavyDoesNotDeadlock(t *testing.T) {
	schema := event.NewSchema("vol")
	pats := []*pattern.Pattern{pattern.MustParse("PATTERN SEQ(A a, B b) WITHIN 10")}
	cfg := core.Config{MarkSize: 20, StepSize: 10, Hidden: 4, Layers: 1}
	srv, err := server.New(schema, pats, cfg, func() (core.EventFilter, error) {
		return core.KeepAllFilter{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Log = t.Logf
	lis := newPipeListener()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(lis)
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	const n = 4000
	events := make([]event.Event, n)
	for i := range events {
		events[i] = event.Event{ID: uint64(i), Type: "A", Ts: int64(i), Attrs: []float64{1}}
		if i%2 == 1 {
			events[i].Type = "B"
		}
	}
	exact, err := core.RunECEP(schema, pats, &event.Stream{Schema: schema, Events: events})
	if err != nil {
		t.Fatal(err)
	}

	conn := lis.dial()
	defer conn.Close()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- stream(server.NewClient(conn), events, &out) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		conn.Close() // unblocks both of stream's goroutines
		<-done
		t.Fatal("client and server deadlocked")
	}
	if got := strings.Count(out.String(), "match: "); got != len(exact.Matches) {
		t.Errorf("printed %d matches, exact CEP finds %d", got, len(exact.Matches))
	}
	want := fmt.Sprintf("summary: %d events, %d matches,", n, len(exact.Matches))
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q", want)
	}
	if len(exact.Matches) < 2*n {
		t.Fatalf("degenerate test: %d matches for %d events", len(exact.Matches), n)
	}
}
