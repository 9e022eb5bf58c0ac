package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// satChunk is the number of events per write when sending at saturation;
// the send time of an event is the time its chunk was handed to the kernel.
const satChunk = 256

// passTimeout bounds one connection so a stalled server fails the pass
// instead of hanging the benchmark.
const passTimeout = 150 * time.Second

// summary mirrors the server's end-of-stream message.
type summary struct {
	Events      int     `json:"events"`
	Relayed     int     `json:"relayed"`
	Matches     int     `json:"matches"`
	FilterRatio float64 `json:"filter_ratio"`
	// EPS is events over the server-side pipeline's own clock.
	EPS float64 `json:"events_per_sec"`
}

// wireMsg is one server line: exactly one field is set.
type wireMsg struct {
	Match *struct {
		IDs []uint64 `json:"ids"`
	} `json:"match"`
	Summary *summary `json:"summary"`
	Error   string   `json:"error"`
}

func parseLine(line []byte) (wireMsg, error) {
	var m wireMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return m, fmt.Errorf("malformed server line %q: %w", line, err)
	}
	if m.Match == nil && m.Summary == nil && m.Error == "" {
		return m, fmt.Errorf("server line %q carries no match, summary or error", line)
	}
	if m.Match != nil && len(m.Match.IDs) == 0 {
		return m, fmt.Errorf("server line %q is a match without event IDs", line)
	}
	return m, nil
}

// matchKey is cep.Match.Key over wire IDs (the server sends them sorted).
func matchKey(ids []uint64) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(id, 10))
	}
	return b.String()
}

// served is one match line as the reader saw it.
type served struct {
	ids  []uint64
	recv time.Duration // receipt time since the connection's first write
}

// conversation is the raw record of one connection: what was sent when,
// and every line that came back.
type conversation struct {
	planned int // events the pass set out to send
	chunk   int // events per write
	// sendAt[c] is when chunk c was due (paced) or handed to the kernel
	// (saturation), since the first write.
	sendAt []time.Duration
	// late[c] is how far behind its due time chunk c was written (paced only).
	late         []time.Duration
	writeBlocked time.Duration // time spent inside conn.Write
	bytesOut     int64         // bytes written to the server
	bytesIn      int64         // bytes read from the server
	matches      []served
	summary      *summary
	summaryAt    time.Duration // receipt time of the summary line
	serverErrs   []string      // {"error":...} lines
	// broken is the transport failure that ended the connection early, if any.
	broken error
}

// pacer sends n events in chunks on an absolute schedule: chunk c is due at
// c*period, and a chunk that is due is sent at once however late the
// previous one ran, so a stall delays the events behind it but never
// shifts the schedule. It returns, per chunk, the due time and how late the
// send started. now reports time since the schedule's origin.
func pacer(n, chunk int, period time.Duration, now func() time.Duration,
	sleep func(time.Duration), send func(lo, hi int) error) (due, late []time.Duration, err error) {
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		d := time.Duration(lo/chunk) * period
		t := now()
		if t < d {
			sleep(d - t)
			t = now()
		}
		l := t - d
		if l < 0 {
			l = 0
		}
		due = append(due, d)
		late = append(late, l)
		if err := send(lo, hi); err != nil {
			return due, late, err
		}
	}
	return due, late, nil
}

// spinSleep waits d without time.Sleep's overshoot: the Go runtime parks an
// idle thread in epoll with a millisecond timeout, so a sleep can run a
// whole 1 ms quantum late. It sleeps all but the last 2 ms and yields in a
// loop for the rest.
func spinSleep(d time.Duration) {
	end := time.Now().Add(d)
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	for time.Now().Before(end) {
		runtime.Gosched()
	}
}

// drive runs one connection against addr: a writer goroutine sends the
// prepared lines (at rate events/s in 1 ms quanta, or as fast as TCP
// accepts when rate is 0) and then FLUSH, while a reader goroutine drains
// match lines until the summary. The reader must run concurrently: a
// client that reads only after its last write deadlocks against a full
// socket once the server blocks writing matches.
func drive(addr string, p *prepared, rate int) (*conversation, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.SetWriteBuffer(32 * 1024); err != nil {
			return nil, err
		}
	}
	if err := conn.SetDeadline(time.Now().Add(passTimeout)); err != nil {
		return nil, err
	}
	n := len(p.events)
	cv := &conversation{planned: n, chunk: satChunk}
	period := time.Duration(0)
	if rate > 0 {
		cv.chunk = rate / 1000
		period = time.Millisecond
	}

	start := time.Now()
	since := func() time.Duration { return time.Since(start) }

	var wg sync.WaitGroup
	var readErr, writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		readErr = readReplies(conn, cv, since)
	}()

	write := func(b []byte) error {
		t := time.Now()
		m, err := conn.Write(b)
		cv.writeBlocked += time.Since(t)
		cv.bytesOut += int64(m)
		return err
	}
	send := func(lo, hi int) error { return write(p.wire[p.off[lo]:p.off[hi]]) }
	if rate > 0 {
		cv.sendAt, cv.late, writeErr = pacer(n, cv.chunk, period, since, spinSleep, send)
	} else {
		for lo := 0; lo < n && writeErr == nil; lo += cv.chunk {
			hi := lo + cv.chunk
			if hi > n {
				hi = n
			}
			cv.sendAt = append(cv.sendAt, since())
			writeErr = send(lo, hi)
		}
	}
	if writeErr == nil {
		writeErr = write([]byte("FLUSH\n"))
	}
	wg.Wait()
	switch {
	case readErr != nil:
		cv.broken = readErr
	case cv.summary == nil && len(cv.serverErrs) == 0:
		cv.broken = errors.Join(errors.New("connection ended before the summary"), writeErr)
	}
	return cv, nil
}

// readReplies drains server lines into cv until the summary, an error line
// or the end of the connection.
func readReplies(r io.Reader, cv *conversation, since func() time.Duration) error {
	br := bufio.NewReaderSize(r, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		at := since()
		cv.bytesIn += int64(len(line))
		msg, err := parseLine(line)
		if err != nil {
			return err
		}
		switch {
		case msg.Match != nil:
			cv.matches = append(cv.matches, served{ids: msg.Match.IDs, recv: at})
		case msg.Error != "":
			cv.serverErrs = append(cv.serverErrs, msg.Error)
			return nil
		default:
			cv.summary, cv.summaryAt = msg.Summary, at
			return nil
		}
	}
}

// tally is the failed-operation accounting and the latency samples of one
// conversation, judged against the exact match set.
type tally struct {
	attempted int // events planned + match lines received
	failed    int
	// keys is the set of distinct served match keys.
	keys map[string]bool
	// hits counts served keys that are in M(s); recall = hits / |M(s)|.
	hits int
	// latencyMS holds one sample per correct match: receipt time minus the
	// send time of the match's highest-ID event. Failed matches contribute
	// no sample (they miss any latency limit).
	latencyMS []float64
	problems  []string
}

// account applies the benchmark's failure rules. Events fail when the
// summary does not confirm them: all of them on an error line or an early
// disconnect, else planned minus the summary's count. A match line fails
// when it repeats an earlier one or is not in the exact set (the paper's
// subset contract).
func account(cv *conversation, exact map[string]bool) *tally {
	t := &tally{attempted: cv.planned + len(cv.matches), keys: map[string]bool{}}
	confirmed := 0
	switch {
	case len(cv.serverErrs) > 0:
		t.problems = append(t.problems, "server error: "+strings.Join(cv.serverErrs, "; "))
	case cv.broken != nil:
		t.problems = append(t.problems, "disconnect: "+cv.broken.Error())
	default:
		confirmed = cv.summary.Events
		if confirmed > cv.planned {
			confirmed = cv.planned
		}
		if cv.summary.Events != cv.planned {
			t.problems = append(t.problems, fmt.Sprintf("summary counts %d events, %d were sent", cv.summary.Events, cv.planned))
		}
	}
	t.failed += cv.planned - confirmed

	false_, dup := 0, 0
	for _, m := range cv.matches {
		k := matchKey(m.ids)
		switch {
		case t.keys[k]:
			dup++
		case !exact[k]:
			t.keys[k] = true
			false_++
		default:
			t.keys[k] = true
			t.hits++
			if c := int(m.ids[len(m.ids)-1]) / cv.chunk; c < len(cv.sendAt) {
				t.latencyMS = append(t.latencyMS, float64(m.recv-cv.sendAt[c])/float64(time.Millisecond))
			}
		}
	}
	t.failed += false_ + dup
	if false_ > 0 {
		t.problems = append(t.problems, fmt.Sprintf("%d served matches are not in the exact set", false_))
	}
	if dup > 0 {
		t.problems = append(t.problems, fmt.Sprintf("%d served matches repeat an earlier line", dup))
	}
	return t
}
