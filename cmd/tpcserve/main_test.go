package main

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the writes made to a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// dialClientPort serves one loopback connection with serveClient over a
// bare server, which answers BEGIN with "ERR not the coordinator" and
// DUMP with "END". It returns the client's end and the server's end.
func dialClientPort(t *testing.T) (*net.TCPConn, *countingConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	conn, err := l.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	served := &countingConn{Conn: conn}
	go serveClient(served, &server{})
	client.SetDeadline(time.Now().Add(10 * time.Second))
	return client.(*net.TCPConn), served
}

// readReplies reads n reply lines.
func readReplies(t *testing.T, r *bufio.Reader, n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v (after %q)", i, err, out)
		}
		out = append(out, strings.TrimSuffix(line, "\n"))
	}
	return out
}

// TestPipelinedLinesAreAnsweredInOneWrite sends three commands in one
// write: the replies come back in order, in one write.
func TestPipelinedLinesAreAnsweredInOneWrite(t *testing.T) {
	client, served := dialClientPort(t)
	if _, err := client.Write([]byte("BEGIN t1\nDUMP\nBEGIN t2\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := readReplies(t, bufio.NewReader(client), 3)
	want := []string{"ERR not the coordinator", "END", "ERR not the coordinator"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("replies %q, want %q", got, want)
	}
	if n := served.writes.Load(); n != 1 {
		t.Fatalf("replies took %d writes, want 1", n)
	}
}

// TestFinalLineWithoutNewlineIsAnswered closes the client's sending side
// after a last line that has no newline: it is still answered.
func TestFinalLineWithoutNewlineIsAnswered(t *testing.T) {
	client, _ := dialClientPort(t)
	if _, err := client.Write([]byte("DUMP")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := client.CloseWrite(); err != nil {
		t.Fatalf("close write: %v", err)
	}
	if got := readReplies(t, bufio.NewReader(client), 1); got[0] != "END" {
		t.Fatalf("reply %q, want END", got[0])
	}
}

// TestOverlongLineClosesTheConnection sends a line over 1 MiB and a DUMP
// behind it: the connection closes and the DUMP is never answered.
func TestOverlongLineClosesTheConnection(t *testing.T) {
	client, _ := dialClientPort(t)
	go client.Write(append(bytes.Repeat([]byte("x"), 1<<20+1), "\nDUMP\n"...))
	if line, err := bufio.NewReader(client).ReadString('\n'); err == nil {
		t.Fatalf("an overlong line was followed by reply %q, want the connection closed", line)
	}
}
