package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"
)

// lineClient is one connection to a tpcserve client port. A whole
// transaction is written at once and its replies read back in order; the
// server still executes one blocking COMMIT per connection.
type lineClient struct {
	conn net.Conn
	r    *bufio.Reader
}

// replyTimeout bounds one transaction: tpcserve's own watchdogs answer
// within 60 s, so a longer silence is a hung server.
const replyTimeout = 90 * time.Second

func dialLine(addr string) (*lineClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &lineClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *lineClient) close() { _ = c.conn.Close() }

func (c *lineClient) readLine() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// outcome is a server's answer to one transaction.
type outcome struct {
	committed bool
	reads     map[string]string // key -> value, the "site/" prefix removed
}

// exec sends one transaction (BEGIN .. COMMIT, as rendered by the
// generator) and reads one reply per line sent. Any ERR line, and any
// reply that is not the expected OK or DONE, is returned as an error.
func (c *lineClient) exec(lines string) (outcome, error) {
	if err := c.conn.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return outcome{}, err
	}
	if _, err := c.conn.Write([]byte(lines)); err != nil {
		return outcome{}, fmt.Errorf("send: %w", err)
	}
	n := strings.Count(lines, "\n")
	var firstErr error
	var out outcome
	for i := 0; i < n; i++ {
		reply, err := c.readLine()
		if err != nil {
			return outcome{}, fmt.Errorf("read reply: %w", err)
		}
		switch {
		case i < n-1 && reply == "OK":
		case i == n-1 && strings.HasPrefix(reply, "DONE "):
			out = parseDone(reply)
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("reply %d of %d: %q", i+1, n, reply)
			}
		}
	}
	return out, firstErr
}

// parseDone splits "DONE <txn> <COMMIT|ABORT> [site/key=value ...]".
func parseDone(line string) outcome {
	fields := strings.Fields(line)
	out := outcome{reads: map[string]string{}}
	if len(fields) < 3 {
		return out
	}
	out.committed = fields[2] == "COMMIT"
	for _, kv := range fields[3:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		if _, key, ok := strings.Cut(k, "/"); ok {
			k = key
		}
		out.reads[k] = v
	}
	return out
}

// dumpNode returns a node's committed state as the raw "KV" lines of its
// DUMP (for byte-for-byte comparison across a restart) and as a map.
func dumpNode(addr string) (string, map[string]string, error) {
	c, err := dialLine(addr)
	if err != nil {
		return "", nil, err
	}
	defer c.close()
	if err := c.conn.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return "", nil, err
	}
	if _, err := c.conn.Write([]byte("DUMP\n")); err != nil {
		return "", nil, fmt.Errorf("send DUMP: %w", err)
	}
	var raw strings.Builder
	state := map[string]string{}
	for {
		line, err := c.readLine()
		if err != nil {
			return "", nil, fmt.Errorf("DUMP from %s: %w", addr, err)
		}
		if line == "END" {
			return raw.String(), state, nil
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "KV" {
			return "", nil, fmt.Errorf("DUMP from %s: bad line %q", addr, line)
		}
		raw.WriteString(line + "\n")
		state[fields[1]] = fields[2]
	}
}
