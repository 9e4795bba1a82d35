package main

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"
)

func TestParseFrameHead(t *testing.T) {
	f, n, err := parseFrameHead("EVENT s12 3 12.300000000000004 2")
	if err != nil || f.SubID != "s12" || f.Seq != 3 || f.Watermark != 12.300000000000004 || n != 2 {
		t.Fatalf("got %+v n=%d err=%v", f, n, err)
	}
	for _, bad := range []string{
		"", "EVENT", "EVENT s1 1 2", "EVENT s1 x 2 0", "EVENT s1 1 y 0", "EVENT s1 1 2 -1",
		"EVENT s1 0 2 0", "OK 1", "EVENT s1 1 2 0 extra",
	} {
		if _, _, err := parseFrameHead(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

// A scripted server interleaves frames with replies, as the protocol
// allows: frames between responses, never inside one.
func TestSubConnSeparatesFramesFromReplies(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	opened := make(chan struct{})
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		r.ReadString('\n') // SUBSCRIBE
		fmt.Fprint(conn, "OK 1\ns1\nEND\n")
		fmt.Fprint(conn, "EVENT s1 1 0.5 0\nEND\n")
		r.ReadString('\n') // SUBSCRIBE
		fmt.Fprint(conn, "EVENT s1 2 1 2\n1.0 2.0 1.000 -\n3.0 4.0 0.500 driver=X\nEND\n")
		fmt.Fprint(conn, "OK 1\ns2\nEND\n")
		r.ReadString('\n') // bad request
		fmt.Fprint(conn, "ERR unknown command\n")
		r.ReadString('\n') // PING: the window opens after it
		fmt.Fprint(conn, "OK 0\nEND\n")
		<-opened
		fmt.Fprint(conn, "EVENT s2 1 1 0\nEND\n")   // old watermark
		fmt.Fprint(conn, "EVENT s1 5 1.5 0\nEND\n") // new watermark; seq 3 and 4 were dropped
		fmt.Fprint(conn, "EVENT s2 2 1.5 1\n9.0 9.5 1.000 -\nEND\n")
		r.ReadString('\n') // wait for the client to close
	}()

	c, err := dialSub(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if body, err := c.do("SUBSCRIBE a"); err != nil || !reflect.DeepEqual(body, []string{"s1"}) {
		t.Fatalf("first reply %q, %v", body, err)
	}
	if body, err := c.do("SUBSCRIBE b"); err != nil || !reflect.DeepEqual(body, []string{"s2"}) {
		t.Fatalf("second reply %q, %v", body, err)
	}
	if _, err := c.do("FROBNICATE"); err == nil {
		t.Fatal("ERR reply did not surface as an error")
	}
	if _, err := c.do("PING"); err != nil {
		t.Fatal(err)
	}
	c.openWindow(0)
	close(opened)
	var start frame
	for ok := false; !ok; time.Sleep(time.Millisecond) {
		if start, ok, err = c.windowStart(); err != nil {
			t.Fatal(err)
		}
	}
	if start.SubID != "s1" || start.Watermark != 1.5 {
		t.Errorf("window opened by %+v, want s1 at 1.5", start)
	}
	for n := 0; n < 5; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		n = c.received
		c.mu.Unlock()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gaps != 2 {
		t.Errorf("gaps = %d, want 2", c.gaps)
	}
	if got := c.last["s2"]; got.Seq != 2 || !reflect.DeepEqual(got.Lines, []string{"9.0 9.5 1.000 -"}) {
		t.Errorf("last frame of s2 = %+v", got)
	}
	if got := c.last["s1"]; got.Seq != 5 || got.Watermark != 1.5 {
		t.Errorf("last frame of s1 = %+v", got)
	}
	if len(c.first) != 3 {
		t.Errorf("%d watermarks seen, want 3", len(c.first))
	}
}
