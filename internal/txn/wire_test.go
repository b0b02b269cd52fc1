package txn

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/tpc"
)

// TestRegisterWireRoundTrip round-trips a work body on a commit request
// and a read body on a yes-vote through a real wire codec and frame
// encoding: the transaction layer's traffic is tpc's, its bodies opaque
// bytes there, and they arrive as they left.
func TestRegisterWireRoundTrip(t *testing.T) {
	codec := tcp.NewCodec()
	if err := RegisterWire(codec); err != nil {
		t.Fatalf("RegisterWire: %v", err)
	}
	if err := tpc.RegisterWire(codec); err != nil {
		t.Fatalf("tpc RegisterWire: %v", err)
	}
	ops := []Op{
		{Site: 2, Key: "a", Value: "1", IsWrite: true},
		{Site: 2, Key: "b"},
		{Site: 2, Key: "n", Value: "5", Class: ClassInc},
	}
	var work []byte
	for _, op := range ops {
		work = appendOp(work, op)
	}
	reads := []read{{"b", "7"}, {"", ""}}
	var replies []byte
	for _, r := range reads {
		replies = appendRead(replies, r.key, r.value)
	}
	for kind, body := range map[string][]byte{tpc.KindCommitReq: work, tpc.KindVoteYes: replies} {
		payload, err := codec.Decode(kind, fmt.Appendf(nil, `{"Txn":"t1","Participants":[2],"Body":%q}`, base64.StdEncoding.EncodeToString(body)))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		frame, err := tcp.EncodeFrame(codec, rt.Message{From: 1, To: 2, Kind: kind, Payload: payload})
		if err != nil {
			t.Fatalf("%s: EncodeFrame: %v", kind, err)
		}
		got, _, err := tcp.DecodeFrame(codec, frame)
		if err != nil {
			t.Fatalf("%s: DecodeFrame: %v", kind, err)
		}
		var msg struct{ Body []byte }
		if data, err := json.Marshal(got.Payload); err != nil || json.Unmarshal(data, &msg) != nil || !bytes.Equal(msg.Body, body) {
			t.Fatalf("%s: body arrived as %x (%v), sent %x", kind, msg.Body, err, body)
		}
	}
	if got, err := DecodeOps(work, 2); err != nil || !reflect.DeepEqual(got, ops) {
		t.Errorf("work body decodes to %+v (%v), want %+v", got, err, ops)
	}
	if got, err := decodeReads(replies); err != nil || !reflect.DeepEqual(got, reads) {
		t.Errorf("read body decodes to %+v (%v), want %+v", got, err, reads)
	}
}

// TestRegisterWireComposesWithTPC pins the deployment pattern: both
// engine layers register into one codec, and since the transaction
// layer's work and reads ride on tpc's commit request and yes-vote, the
// combined codec holds exactly tpc's nine kinds.
func TestRegisterWireComposesWithTPC(t *testing.T) {
	codec := tcp.NewCodec()
	if err := RegisterWire(codec); err != nil {
		t.Fatalf("txn RegisterWire: %v", err)
	}
	if err := tpc.RegisterWire(codec); err != nil {
		t.Fatalf("tpc RegisterWire on same codec: %v", err)
	}
	if got := len(codec.Kinds()); got != 9 {
		t.Fatalf("combined codec has %d kinds %v, want 9", got, codec.Kinds())
	}
}

// FuzzWorkBody: whatever bytes arrive as a body, the decoders return an
// error or a value, never panic; and a body that decodes is exactly the
// encoding of what it decoded to, so encode-then-decode returns the same
// operations, and the same reads. The seed corpus in testdata/fuzz holds
// bodies a simulated cluster sent.
func FuzzWorkBody(f *testing.F) {
	f.Add(appendOp(nil, Op{Key: "k", Value: "v", IsWrite: true}))
	f.Fuzz(func(t *testing.T, body []byte) {
		if ops, err := DecodeOps(body, 2); err == nil {
			var again []byte
			for _, op := range ops {
				again = appendOp(again, op)
			}
			if !bytes.Equal(again, body) {
				t.Fatalf("ops %+v re-encode to %x, decoded from %x", ops, again, body)
			}
			if back, err := DecodeOps(again, 2); err != nil || !reflect.DeepEqual(back, ops) {
				t.Fatalf("ops %+v decode back to %+v (%v)", ops, back, err)
			}
		}
		if reads, err := decodeReads(body); err == nil {
			var again []byte
			for _, r := range reads {
				again = appendRead(again, r.key, r.value)
			}
			if !bytes.Equal(again, body) {
				t.Fatalf("reads %+v re-encode to %x, decoded from %x", reads, again, body)
			}
			if back, err := decodeReads(again); err != nil || !reflect.DeepEqual(back, reads) {
				t.Fatalf("reads %+v decode back to %+v (%v)", reads, back, err)
			}
		}
	})
}

// TestMalformedBodiesAreErrors pins the decoders' refusals: a truncated
// field, an overlong length, unknown flags and a classed record without a
// class are errors, and a site asked to run such a body votes no.
func TestMalformedBodiesAreErrors(t *testing.T) {
	good := appendOp(nil, Op{Key: "k", Value: "v", IsWrite: true})
	for name, body := range map[string][]byte{
		"truncated":     good[:len(good)-1],
		"overlong":      {0, 0x81, 0x00, 'k', 0},
		"unknown flags": {4, 1, 'k', 0},
		"empty class":   {opClassed, 1, 'k', 0, 0},
		"huge length":   {0, 0xff, 0xff, 0xff, 0xff, 0x0f},
	} {
		if ops, err := DecodeOps(body, 2); !errors.Is(err, errBody) {
			t.Errorf("%s: DecodeOps = %+v, %v; want errBody", name, ops, err)
		}
	}
	if reads, err := decodeReads([]byte{1, 'k'}); !errors.Is(err, errBody) {
		t.Errorf("read body without a value: %+v, %v; want errBody", reads, err)
	}
	c, err := NewCluster(1, 1, tpc.Config{})
	mustOK(t, err)
	site := c.Sites[c.SiteIDs[0]]
	if yes, _ := site.vote("t", good[:len(good)-1]); yes || site.Store.OpenTxns() != 0 {
		t.Errorf("a truncated body voted yes=%v with %d branches open", yes, site.Store.OpenTxns())
	}
}

// TestSiteForPackageLevel pins the exported placement hash: every front
// end (simulator cluster, tpcserve's client port, tpcload) must agree on
// it, so its behavior is frozen here.
func TestSiteForPackageLevel(t *testing.T) {
	sites := []rt.NodeID{2, 3, 4}
	for key, want := range map[string]rt.NodeID{
		"a":    SiteFor(sites, "a"),
		"acct": SiteFor(sites, "acct"),
	} {
		for i := 0; i < 100; i++ {
			if got := SiteFor(sites, key); got != want {
				t.Fatalf("SiteFor(%q) unstable: %d then %d", key, want, got)
			}
		}
	}
	// Keys whose folded hash goes negative keep the site they have always
	// had (values recorded before the overflow fix), and the one key shape
	// whose hash is the minimum int — it used to index out of range and
	// crash the coordinator — now maps to a site too.
	for key, want := range map[string]rt.NodeID{
		"account-0000000017": 2,
		"account-0000000018": 4,
		"account-0000000019": 3,
	} {
		if got := SiteFor(sites, key); got != want {
			t.Errorf("SiteFor(%q) = %d, want %d: a mapped key moved", key, got, want)
		}
	}
	if got := SiteFor(sites, "9.=/;,97;12.("); got < 2 || got > 4 {
		t.Errorf("SiteFor(min-int key) = %d, want a site in %v", got, sites)
	}
	// The hash spreads: three distinct single-letter keys do not all land
	// on one site.
	seen := map[rt.NodeID]bool{}
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		seen[SiteFor(sites, k)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("SiteFor sends every key to one site: %v", seen)
	}
}
