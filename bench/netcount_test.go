package main

import (
	"io"
	"net"
	"testing"
	"time"
)

func TestCountingTransport(t *testing.T) {
	c := &netCounters{}
	tp := countingTransport{inner: loopback{}, c: c}
	l, err := tp.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err != nil {
			served <- err
			return
		}
		conn.Write([]byte("abc")) //nolint:errcheck // the dialer's read reports a failure
		served <- conn.Close()
	}()
	conn, err := tp.DialTimeout("tcp", l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("he")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("llo")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if got := c.open.Load(); got != 1 {
		t.Errorf("open endpoints = %d with the dialer's end still open, want 1", got)
	}
	conn.Close()
	conn.Close() // closing twice must not count twice
	if d, w, b, o := c.dials.Load(), c.writes.Load(), c.bytes.Load(), c.open.Load(); d != 1 || w != 3 || b != 8 || o != 0 {
		t.Errorf("dials=%d writes=%d bytes=%d open=%d, want 1 3 8 0", d, w, b, o)
	}
	var _ net.Conn = (*countingConn)(nil)
}
