package tpc

import (
	"reflect"
	"strings"
	"testing"

	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/simnet" //lint:allow rt-boundary test drives the simulator harness directly
)

// TestRegisterWireRoundTrip round-trips a representative payload for
// every tpc message kind through a real wire codec and frame encoding,
// asserting the decoded payload is byte-for-byte the concrete type and
// value the handlers assert on. A kind added to the protocol without a
// codec case makes the totality check below fail.
func TestRegisterWireRoundTrip(t *testing.T) {
	codec := tcp.NewCodec()
	if err := RegisterWire(codec); err != nil {
		t.Fatalf("RegisterWire: %v", err)
	}

	payloads := map[string]any{
		KindCommitReq: txnMsg{Txn: "t1", Participants: []rt.NodeID{2, 3}},
		KindVoteYes:   txnMsg{Txn: "t2"},
		KindVoteNo:    txnMsg{Txn: "t3"},
		KindPrepare:   txnMsg{Txn: "t4"},
		KindAck:       txnMsg{Txn: "t5"},
		KindCommit:    txnMsg{Txn: "t6"},
		KindAbort:     txnMsg{Txn: "t7"},
		KindStateReq:  txnMsg{Txn: "t8"},
		KindStateResp: stateResp{Txn: "t9", State: StatePrepared},
	}

	// Totality: the registered kind set is exactly the protocol's.
	kinds := codec.Kinds()
	if len(kinds) != len(payloads) {
		t.Fatalf("registered %d kinds %v, want %d", len(kinds), kinds, len(payloads))
	}
	for _, k := range kinds {
		if _, ok := payloads[k]; !ok {
			t.Fatalf("registered kind %s has no round-trip case", k)
		}
	}

	for kind, payload := range payloads {
		msg := rt.Message{From: 1, To: 2, Kind: kind, Payload: payload, SentAt: 5}
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

// TestCommitReqNamesParticipants pins the one wire encoding of a commit
// request: whatever the coordinator puts on the network carries the
// participant list (Begin's every-cohort set included), no other kind
// does, and a cohort counts a request without one as malformed instead of
// entering w with nobody to terminate with.
func TestCommitReqNamesParticipants(t *testing.T) {
	codec := tcp.NewCodec()
	if err := RegisterWire(codec); err != nil {
		t.Fatalf("RegisterWire: %v", err)
	}
	g, err := NewGroup(1, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := 0
	g.Net.OnSend = func(_ uint64, m simnet.Message) simnet.SendFault {
		body, err := codec.Encode(m.Kind, m.Payload)
		if err != nil {
			t.Errorf("%s: Encode: %v", m.Kind, err)
		}
		if m.Kind == KindCommitReq {
			reqs++
			if want := `{"Txn":"t1","Participants":[2,3,4]}`; string(body) != want {
				t.Errorf("commit request on the wire = %s, want %s", body, want)
			}
		} else if strings.Contains(string(body), "Participants") {
			t.Errorf("%s carries a participant list: %s", m.Kind, body)
		}
		return simnet.SendFault{}
	}
	if err := g.Run("t1"); err != nil {
		t.Fatal(err)
	}
	if reqs != 3 || g.Coordinator.Decision("t1") != DecisionCommit {
		t.Fatalf("%d commit requests, decision %s; want 3 and commit", reqs, g.Coordinator.Decision("t1"))
	}

	bare, err := codec.Decode(KindCommitReq, []byte(`{"Txn":"t2"}`))
	if err != nil {
		t.Fatal(err)
	}
	h := g.Cohorts[2]
	if h.HandleMessage(rt.Message{From: 1, To: 2, Kind: KindCommitReq, Payload: bare}) {
		t.Error("cohort consumed a commit request that names no participants")
	}
	if h.Malformed() != 1 || h.StateOf("t2") != StateInitial {
		t.Errorf("malformed = %d, state = %v; want 1 and q", h.Malformed(), h.StateOf("t2"))
	}
}

// TestRegisterWireRejectsWrongPayloadType pins that encoders refuse a
// payload of the wrong concrete type instead of serializing garbage.
func TestRegisterWireRejectsWrongPayloadType(t *testing.T) {
	codec := tcp.NewCodec()
	if err := RegisterWire(codec); err != nil {
		t.Fatalf("RegisterWire: %v", err)
	}
	if _, err := codec.Encode(KindCommitReq, "not a txnMsg"); err == nil {
		t.Error("Encode with wrong payload type succeeded; want error")
	}
	if _, err := codec.Encode(KindStateResp, txnMsg{Txn: "t"}); err == nil {
		t.Error("Encode stateResp kind with txnMsg succeeded; want error")
	}
}

// TestRegisterWireDuplicate pins that double registration fails loudly.
func TestRegisterWireDuplicate(t *testing.T) {
	codec := tcp.NewCodec()
	if err := RegisterWire(codec); err != nil {
		t.Fatalf("RegisterWire: %v", err)
	}
	if err := RegisterWire(codec); err == nil {
		t.Error("second RegisterWire succeeded; want duplicate-kind error")
	}
}
