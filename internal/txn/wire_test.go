package txn

import (
	"reflect"
	"testing"

	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/tpc"
)

// TestRegisterWireRoundTrip round-trips a representative payload for
// every txn message kind through a real wire codec and frame encoding.
func TestRegisterWireRoundTrip(t *testing.T) {
	codec := tcp.NewCodec()
	if err := RegisterWire(codec); err != nil {
		t.Fatalf("RegisterWire: %v", err)
	}

	payloads := map[string]any{
		kindWork: workMsg{Txn: "t1", Ops: []Op{
			{Site: 2, Key: "a", Value: "1", IsWrite: true},
			{Site: 3, Key: "b"},
		}},
		kindWorkDone: doneMsg{Txn: "t2", Reads: map[string]string{"2/a": "1"}},
		kindWorkFail: doneMsg{Txn: "t3"},
	}

	kinds := codec.Kinds()
	if len(kinds) != len(payloads) {
		t.Fatalf("registered %d kinds %v, want %d", len(kinds), kinds, len(payloads))
	}
	for kind, payload := range payloads {
		msg := rt.Message{From: 1, To: 2, Kind: kind, Payload: payload}
		frame, err := tcp.EncodeFrame(codec, msg)
		if err != nil {
			t.Errorf("%s: EncodeFrame: %v", kind, err)
			continue
		}
		got, _, err := tcp.DecodeFrame(codec, frame)
		if err != nil {
			t.Errorf("%s: DecodeFrame: %v", kind, err)
			continue
		}
		if !reflect.DeepEqual(got.Payload, payload) {
			t.Errorf("%s: round trip = %#v, want %#v", kind, got.Payload, payload)
		}
	}
}

// TestRegisterWireComposesWithTPC pins the deployment pattern: both
// engine layers register into one codec without kind collisions.
func TestRegisterWireComposesWithTPC(t *testing.T) {
	codec := tcp.NewCodec()
	if err := RegisterWire(codec); err != nil {
		t.Fatalf("txn RegisterWire: %v", err)
	}
	if err := tpc.RegisterWire(codec); err != nil {
		t.Fatalf("tpc RegisterWire on same codec: %v", err)
	}
	if got := len(codec.Kinds()); got != 12 {
		t.Fatalf("combined codec has %d kinds %v, want 12", got, codec.Kinds())
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
