package simnet

import (
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveEcho accepts one connection and echoes everything it reads.
func serveEcho(t *testing.T, l net.Listener) {
	t.Helper()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c) //nolint:errcheck
	}()
}

func TestDialListenEcho(t *testing.T) {
	n := New(1)
	l, err := n.Host("srv").Listen("sim", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveEcho(t, l)
	c, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello through the virtual wire")
	var got []byte
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(msg))
		_, err := io.ReadFull(c, buf)
		got = buf
		done <- err
	}()
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
	c.Close()
	if la, ra := c.LocalAddr().String(), c.RemoteAddr().String(); !strings.HasPrefix(la, "cli:") || ra != "srv:1" {
		t.Fatalf("addrs = %s / %s", la, ra)
	}
}

func TestDialRefusedWithoutListener(t *testing.T) {
	n := New(1)
	_, err := n.Host("cli").DialTimeout("sim", "ghost:1", time.Second)
	if err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("err = %v, want connection refused", err)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	n := New(1)
	l, err := n.Host("b").Listen("sim", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveEcho(t, l)
	// A live connection across the divide is severed when the partition
	// lands, with the canonical cut error on both ends.
	c, err := n.Host("a").DialTimeout("sim", "b:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	n.Partition([]string{"a"}, []string{"b"})
	if _, err := c.Write([]byte("x")); err == nil || !strings.Contains(err.Error(), "cut (partition)") {
		t.Fatalf("write on severed conn: %v", err)
	}
	c.Close()
	if _, err := n.Host("a").DialTimeout("sim", "b:1", time.Second); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("dial across partition: %v", err)
	}
	// Hosts in the same group still reach each other.
	l2, err := n.Host("a").Listen("sim", "a:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	serveEcho(t, l2)
	if c2, err := n.Host("a").DialTimeout("sim", "a:1", time.Second); err != nil {
		t.Fatalf("same-group dial: %v", err)
	} else {
		c2.Close()
	}
	n.Heal()
	c3, err := n.Host("a").DialTimeout("sim", "b:1", time.Second)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c3.Close()
}

// TestDropAtOffset verifies the byte-exact cut: the peer receives
// exactly offset bytes, and both endpoints then fail with the same
// canonical error naming the offset.
func TestDropAtOffset(t *testing.T) {
	const offset = 10
	n := New(1)
	l, err := n.Host("srv").Listen("sim", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type recvResult struct {
		data []byte
		err  error
	}
	recvd := make(chan recvResult, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			recvd <- recvResult{err: err}
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		total := 0
		for {
			m, err := c.Read(buf[total:])
			total += m
			if err != nil {
				recvd <- recvResult{data: buf[:total], err: err}
				return
			}
		}
	}()
	n.DropAfter("cli", "srv", offset)
	c, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wrote, err := c.Write([]byte("0123456789abcdef"))
	if err == nil || !strings.Contains(err.Error(), "cut (drop-at-offset) at byte offset 10") {
		t.Fatalf("write: n=%d err=%v", wrote, err)
	}
	if wrote != offset {
		t.Fatalf("wrote %d bytes, want %d", wrote, offset)
	}
	r := <-recvd
	if string(r.data) != "0123456789" {
		t.Fatalf("peer received %q, want the 10-byte prefix", r.data)
	}
	if r.err == nil || !strings.Contains(r.err.Error(), "cut (drop-at-offset) at byte offset 10") {
		t.Fatalf("peer read error = %v, want canonical cut error", r.err)
	}
	// The fault is one-shot: a fresh connection on the link is clean.
	serveEcho(t, l)
	c2, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatalf("write on fresh conn after one-shot drop: %v", err)
	}
}

// TestFlipAtOffset verifies the corruption fault: the connection stays
// up, the receiver sees exactly the armed byte range bitwise-inverted,
// the writer's buffer is untouched, a "flip" event is emitted, and the
// fault is one-shot.
func TestFlipAtOffset(t *testing.T) {
	n := New(1)
	var mu sync.Mutex
	var events []string
	n.OnEvent = func(e Event) {
		mu.Lock()
		events = append(events, e.String())
		mu.Unlock()
	}
	l, err := n.Host("srv").Listen("sim", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveEcho(t, l)
	n.FlipAfter("cli", "srv", 8, 4)
	c, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("0123456789abcdef")
	sent := append([]byte(nil), msg...)
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("read back: %v", err)
		}
		done <- buf
	}()
	wrote, err := c.Write(msg)
	if err != nil || wrote != len(msg) {
		t.Fatalf("write: n=%d err=%v, want clean full write", wrote, err)
	}
	if string(msg) != string(sent) {
		t.Fatalf("writer's buffer mutated: %q", msg)
	}
	got := <-done
	want := append([]byte(nil), msg...)
	for i := 8; i < 12; i++ {
		want[i] ^= 0xff
	}
	if string(got) != string(want) {
		t.Fatalf("peer received %q, want bytes [8,12) inverted: %q", got, want)
	}
	// One-shot: the next write on the same connection is clean.
	reply := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 5)
		io.ReadFull(c, buf) //nolint:errcheck
		reply <- buf
	}()
	if _, err := c.Write([]byte("clean")); err != nil {
		t.Fatal(err)
	}
	if got := <-reply; string(got) != "clean" {
		t.Fatalf("post-flip write delivered %q, want clean", got)
	}
	mu.Lock()
	joined := strings.Join(events, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "flip cli->srv (@8B+4)") {
		t.Fatalf("events missing flip record:\n%s", joined)
	}

	// ClearFaults disarms a pending flip before any connection uses it.
	n.FlipAfter("cli", "srv", 0, 1)
	n.ClearFaults()
	serveEcho(t, l)
	c2, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got2 := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 2)
		io.ReadFull(c2, buf) //nolint:errcheck
		got2 <- buf
	}()
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if b := <-got2; string(b) != "ok" {
		t.Fatalf("after ClearFaults delivered %q, want ok", b)
	}
}

// TestFlipAndDropCountOwnDirection: a fault armed for a→b counts only the
// bytes a sends. The listener speaks first here, so a fault counted
// over both directions would strike its banner; a→b faults must leave
// the banner whole and strike the dialer's bytes at their own offsets,
// and b→a faults the reverse.
func TestFlipAndDropCountOwnDirection(t *testing.T) {
	const banner, msg = "HELLO", "abcdefghij"
	invert := func(s string, lo, hi int) string {
		b := []byte(s)
		for i := lo; i < hi; i++ {
			b[i] ^= 0xff
		}
		return string(b)
	}
	// exchange runs one connection on a fresh network armed by arm:
	// the listener writes the banner, the dialer reads it and writes
	// msg. It returns what each side received and the dialer's write
	// error.
	exchange := func(arm func(n *Network)) (gotBanner, gotMsg string, werr error) {
		n := New(1)
		l, err := n.Host("srv").Listen("sim", "srv:1")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		recvd := make(chan string, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				recvd <- ""
				return
			}
			defer c.Close()
			c.Write([]byte(banner)) //nolint:errcheck // a cut surfaces on the dialer's side
			buf := make([]byte, len(msg))
			k, _ := io.ReadFull(c, buf)
			recvd <- string(buf[:k])
		}()
		arm(n)
		c, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		buf := make([]byte, len(banner))
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("read banner: %v", err)
		}
		_, werr = c.Write([]byte(msg))
		return string(buf), <-recvd, werr
	}

	b, m, err := exchange(func(n *Network) { n.FlipAfter("cli", "srv", 3, 4) })
	if b != banner || m != invert(msg, 3, 7) || err != nil {
		t.Errorf("flip cli->srv [3,7): banner %q, message %q, write error %v; want %q, %q, nil", b, m, err, banner, invert(msg, 3, 7))
	}
	b, m, err = exchange(func(n *Network) { n.FlipAfter("srv", "cli", 1, 2) })
	if b != invert(banner, 1, 3) || m != msg || err != nil {
		t.Errorf("flip srv->cli [1,3): banner %q, message %q, write error %v; want %q, %q, nil", b, m, err, invert(banner, 1, 3), msg)
	}
	b, m, err = exchange(func(n *Network) { n.DropAfter("cli", "srv", 4) })
	if b != banner || m != msg[:4] || err == nil || !strings.Contains(err.Error(), "drop-at-offset) at byte offset 4 of cli's stream") {
		t.Errorf("drop cli->srv at 4: banner %q, message %q, write error %v; want %q, %q, a cut at cli's byte 4", b, m, err, banner, msg[:4])
	}
}

// TestFlipSpansChunks verifies a flip range that straddles two writes:
// each delivery inverts its overlap and the fault disarms only once the
// whole range has passed.
func TestFlipSpansChunks(t *testing.T) {
	n := New(1)
	l, err := n.Host("srv").Listen("sim", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveEcho(t, l)
	n.FlipAfter("cli", "srv", 3, 4) // bytes [3,7) across two 5-byte writes
	c, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 10)
		io.ReadFull(c, buf) //nolint:errcheck
		done <- buf
	}()
	if _, err := c.Write([]byte("abcde")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("fghij")); err != nil {
		t.Fatal(err)
	}
	got := <-done
	want := []byte("abcdefghij")
	for i := 3; i < 7; i++ {
		want[i] ^= 0xff
	}
	if string(got) != string(want) {
		t.Fatalf("peer received %q, want [3,7) inverted: %q", got, want)
	}
}

func TestSetDownRefusesAndRecovers(t *testing.T) {
	n := New(1)
	l, err := n.Host("b").Listen("sim", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveEcho(t, l)
	n.SetDown("a", "b", true)
	if _, err := n.Host("a").DialTimeout("sim", "b:1", time.Second); err == nil || !strings.Contains(err.Error(), "link down") {
		t.Fatalf("dial on downed link: %v", err)
	}
	n.SetDown("a", "b", false)
	c, err := n.Host("a").DialTimeout("sim", "b:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestDeadlines(t *testing.T) {
	n := New(1)
	l, err := n.Host("b").Listen("sim", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		if c != nil {
			defer c.Close()
			time.Sleep(time.Second) // never writes
		}
	}()
	c, err := n.Host("a").DialTimeout("sim", "b:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
	var buf [1]byte
	if _, err := c.Read(buf[:]); !os.IsTimeout(err) {
		t.Fatalf("read past deadline: %v", err)
	}
}

// TestConnWritesRecordsChunks pins the accounting the mid-stream matrix
// relies on: chunk sizes in delivery order, per direction, per
// connection in dial order.
func TestConnWritesRecordsChunks(t *testing.T) {
	n := New(1)
	l, err := n.Host("srv").Listen("sim", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ready := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 7)
		io.ReadFull(c, buf)     //nolint:errcheck
		c.Write([]byte("ack"))  //nolint:errcheck
		io.ReadFull(c, buf[:2]) //nolint:errcheck
		close(ready)
	}()
	c, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("1234567")) //nolint:errcheck
	ackBuf := make([]byte, 3)
	io.ReadFull(c, ackBuf) //nolint:errcheck
	c.Write([]byte("89"))  //nolint:errcheck
	<-ready
	c.Close()
	for _, c := range []struct {
		from, to string
		want     []int
	}{{"cli", "srv", []int{7, 2}}, {"srv", "cli", []int{3}}} {
		writes := n.ConnWrites(c.from, c.to)
		if len(writes) != 1 {
			t.Fatalf("%s->%s: conn count = %d, want 1", c.from, c.to, len(writes))
		}
		if fmt.Sprint(writes[0]) != fmt.Sprint(c.want) {
			t.Fatalf("%s->%s: writes = %v, want %v", c.from, c.to, writes[0], c.want)
		}
	}
}

// TestLatencyDelaysDelivery sanity-checks that a configured latency
// window actually delays a chunk, and that the delay is sampled inside
// the window.
func TestLatencyDelaysDelivery(t *testing.T) {
	n := New(99)
	n.SetLatency("a", "b", 30*time.Millisecond, 40*time.Millisecond)
	l, err := n.Host("b").Listen("sim", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveEcho(t, l)
	c, err := n.Host("a").DialTimeout("sim", "b:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.Write([]byte("x")) //nolint:errcheck
	var buf [1]byte
	io.ReadFull(c, buf[:]) //nolint:errcheck
	// One chunk each way: at least 2×30ms of injected delay.
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 60ms of injected latency", d)
	}
}

// TestEventOrderDeterminism replays the same scripted usage on two
// same-seeded networks and requires identical event streams.
func TestEventOrderDeterminism(t *testing.T) {
	script := func(seed uint64) []string {
		var mu sync.Mutex
		var events []string
		n := New(seed)
		n.OnEvent = func(e Event) {
			mu.Lock()
			events = append(events, e.String())
			mu.Unlock()
		}
		l, err := n.Host("srv").Listen("sim", "srv:1")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		serveEcho(t, l)
		n.DropAfter("cli", "srv", 4)
		c, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.Write([]byte("123456")) //nolint:errcheck
		c.Close()
		n.Partition([]string{"cli"}, []string{"srv"})
		n.Host("cli").DialTimeout("sim", "srv:1", time.Second) //nolint:errcheck
		n.Heal()
		if c2, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second); err != nil {
			t.Fatal(err)
		} else {
			c2.Close()
		}
		return events
	}
	a, b := script(42), script(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("event streams diverged:\n%v\n%v", a, b)
	}
	want := []string{
		"dial cli->srv",
		"cut cli->srv (drop-at-offset @4B)",
		"refused cli->srv (host unreachable (partition))",
		"dial cli->srv",
	}
	if fmt.Sprint(a) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", a, want)
	}
}

// TestOpenConnsTracksLeaks: both endpoints count until closed.
func TestOpenConnsTracksLeaks(t *testing.T) {
	n := New(1)
	l, err := n.Host("srv").Listen("sim", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Host("cli").DialTimeout("sim", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sv := <-accepted
	if got := n.OpenConns(); got != 2 {
		t.Fatalf("open = %d, want 2", got)
	}
	c.Close()
	c.Close() // idempotent
	if got := n.OpenConns(); got != 1 {
		t.Fatalf("open after client close = %d, want 1", got)
	}
	sv.Close()
	if got := n.OpenConns(); got != 0 {
		t.Fatalf("open after both closed = %d, want 0", got)
	}
}
