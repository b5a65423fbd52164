package main

// Counting wrappers around net.Listener / net.Conn. The benchmark counts
// dials, write calls and bytes from the outside, at the point where the
// system under test hands bytes to the operating system (or to simnet),
// so the numbers include every header and framing byte and do not
// depend on the system's own statistics.

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// netCounters tallies one workload's traffic. Both ends of every
// connection live in this process and both are wrapped, so counting
// writes on both ends counts every byte exactly once.
type netCounters struct {
	dials  atomic.Int64
	writes atomic.Int64 // Write calls, either end
	bytes  atomic.Int64 // bytes written, either end
	open   atomic.Int64 // wrapped endpoints not yet closed
}

// dialListener is the pair of calls the session layer asks of a
// transport.
type dialListener interface {
	Listen(network, addr string) (net.Listener, error)
	DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error)
}

// loopback is the host's real TCP stack; the benchmark only ever gives
// it 127.0.0.1 addresses, so no real link is crossed.
type loopback struct{}

func (loopback) Listen(network, addr string) (net.Listener, error) { return net.Listen(network, addr) }

func (loopback) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, addr, timeout)
}

type countingTransport struct {
	inner dialListener
	c     *netCounters
}

func (t countingTransport) Listen(network, addr string) (net.Listener, error) {
	l, err := t.inner.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return countingListener{l, t.c}, nil
}

func (t countingTransport) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := t.inner.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	t.c.dials.Add(1)
	return newCountingConn(conn, t.c), nil
}

type countingListener struct {
	net.Listener
	c *netCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newCountingConn(conn, l.c), nil
}

type countingConn struct {
	net.Conn
	c      *netCounters
	closed sync.Once
}

func newCountingConn(conn net.Conn, c *netCounters) *countingConn {
	c.open.Add(1)
	return &countingConn{Conn: conn, c: c}
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Close() error {
	c.closed.Do(func() { c.c.open.Add(-1) })
	return c.Conn.Close()
}
