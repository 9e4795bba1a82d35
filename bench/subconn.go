package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// frame is one pushed EVENT frame and when its last line arrived.
type frame struct {
	SubID     string
	Seq       int
	Watermark float64
	Lines     []string
	At        time.Time
}

// parseFrameHead parses "EVENT <subID> <seq> <watermark> <n>" and
// returns the frame without its body plus the number of body lines.
func parseFrameHead(head string) (frame, int, error) {
	f := strings.Fields(head)
	if len(f) != 5 || f[0] != "EVENT" {
		return frame{}, 0, fmt.Errorf("malformed frame head %q", head)
	}
	seq, err1 := strconv.Atoi(f[2])
	wm, err2 := strconv.ParseFloat(f[3], 64)
	n, err3 := strconv.Atoi(f[4])
	if err1 != nil || err2 != nil || err3 != nil || seq < 1 || n < 0 {
		return frame{}, 0, fmt.Errorf("malformed frame head %q", head)
	}
	return frame{SubID: f[1], Seq: seq, Watermark: wm}, n, nil
}

// subConn is connection A: the one that holds the standing queries.
// The stock client buffers frames that arrive while it waits for a
// reply, without saying when they came; the window of a live workload
// starts at a frame's arrival, so this connection has one reader that
// stamps every frame as it arrives and hands replies to the sender.
type subConn struct {
	conn net.Conn
	r    *bufio.Reader
	// replies carries the body of each OK reply, or the error of an
	// ERR/BUSY one, in request order.
	replies chan reply
	done    chan struct{} // closed when the reader has returned

	mu sync.Mutex
	// last is each subscription's most recent frame.
	last map[string]frame
	// first and lastAt are the arrival times of the first and last
	// frame carrying each watermark.
	first, lastAt map[float64]time.Time
	seen          float64 // highest watermark so far
	lastFrameAt   time.Time
	// floor is the watermark the window must get beyond (set by
	// openWindow); start is the first frame that did.
	floor    float64
	armed    bool
	start    frame
	received int
	gaps     int // frames missing according to the sequence numbers
	err      error
}

type reply struct {
	body []string
	err  error
}

func dialSub(addr string, log *spanLog) (*subConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &subConn{
		conn: conn, r: bufio.NewReader(conn),
		replies: make(chan reply, 1), done: make(chan struct{}),
		last: map[string]frame{}, first: map[float64]time.Time{}, lastAt: map[float64]time.Time{},
	}
	go func() {
		defer close(c.done)
		err := c.read(log)
		c.mu.Lock()
		c.err = err
		c.mu.Unlock()
		close(c.replies)
	}()
	return c, nil
}

func (c *subConn) line() (string, error) {
	l, err := c.r.ReadString('\n')
	return strings.TrimRight(l, "\r\n"), err
}

// body reads n lines and the END terminator.
func (c *subConn) body(n int) ([]string, error) {
	lines := make([]string, 0, n)
	for {
		l, err := c.line()
		if err != nil {
			return nil, err
		}
		if l == "END" && len(lines) >= n {
			return lines, nil
		}
		lines = append(lines, l)
	}
}

// read is the connection's only reader: it stamps and records frames
// and forwards replies, until the connection closes.
func (c *subConn) read(log *spanLog) error {
	for {
		head, err := c.line()
		if err != nil {
			return err
		}
		switch {
		case strings.HasPrefix(head, "EVENT "):
			f, n, err := parseFrameHead(head)
			if err != nil {
				return err
			}
			if f.Lines, err = c.body(n); err != nil {
				return err
			}
			f.At = time.Now()
			c.record(f)
			log.add("push.frame", "", f.Seq, f.At, 0, f.SubID)
		case strings.HasPrefix(head, "OK "):
			n, err := strconv.Atoi(strings.TrimPrefix(head, "OK "))
			if err != nil {
				return fmt.Errorf("malformed reply head %q", head)
			}
			lines, err := c.body(n)
			if err != nil {
				return err
			}
			c.replies <- reply{body: lines}
		default: // ERR, BUSY
			c.replies <- reply{err: fmt.Errorf("server: %s", head)}
		}
	}
}

func (c *subConn) record(f frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.last[f.SubID]; ok && f.Seq > prev.Seq+1 {
		c.gaps += f.Seq - prev.Seq - 1
	}
	c.last[f.SubID] = f
	if _, ok := c.first[f.Watermark]; !ok {
		c.first[f.Watermark] = f.At
	}
	c.lastAt[f.Watermark] = f.At
	if f.Watermark > c.seen {
		c.seen = f.Watermark
	}
	c.lastFrameAt = f.At
	if c.armed && c.start.At.IsZero() && f.Watermark > c.floor {
		c.start = f
	}
	c.received++
}

// do sends one request line and waits for its reply.
func (c *subConn) do(line string) ([]string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return nil, err
	}
	r, ok := <-c.replies
	if !ok {
		c.mu.Lock()
		defer c.mu.Unlock()
		return nil, fmt.Errorf("connection closed: %w", c.err)
	}
	return r.body, r.err
}

// openWindow arms the window: it starts at the first frame whose
// watermark lies beyond from and beyond every watermark seen so far,
// that is, the first tick pushed after this call once the broadcast has
// reached from.
func (c *subConn) openWindow(from float64) {
	c.mu.Lock()
	c.floor, c.armed = math.Max(c.seen, from), true
	c.mu.Unlock()
}

// windowStart returns the frame that started the window, if it has
// arrived, and any error the reader hit.
func (c *subConn) windowStart() (frame, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start, !c.start.At.IsZero(), c.err
}

// quietFor reports how long ago the last frame arrived.
func (c *subConn) quietFor() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Since(c.lastFrameAt)
}

// pushSpanMs is the median, over watermarks with more than one frame,
// of the time from the first to the last frame of that watermark.
func (c *subConn) pushSpanMs() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var spans []float64
	for w, first := range c.first {
		if last := c.lastAt[w]; last.After(first) {
			spans = append(spans, float64(last.Sub(first))/float64(time.Millisecond))
		}
	}
	return median(spans)
}

// close closes the connection and waits for the reader.
func (c *subConn) close() {
	_ = c.conn.Close() // ends the reader; its error is the expected one
	<-c.done
	for range c.replies { // release a reply nobody waited for
	}
}
