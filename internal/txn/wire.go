package txn

import (
	"encoding/binary"
	"errors"

	"speccat/internal/rt"
)

// RegisterWire registers the transaction layer's own message kinds into a
// wire codec (rt.PayloadRegistry). There are none: a site's work rides on
// its tpc.commitreq and its reads on its tpc.voteyes, as the opaque body
// tpc.RegisterWire's codec carries, so it registers nothing and returns
// nil. It stays because bench/ calls it beside tpc.RegisterWire.
func RegisterWire(rt.PayloadRegistry) error { return nil }

// The bodies are append-encoded sequences of length-prefixed fields (a
// minimal uvarint length, then the bytes), so a decoder accepts exactly
// the bytes its encoder produces. A work body holds one record per
// operation: a flags byte, the key, the value and, for a classed
// operation, its class. A read body holds one key, value pair per read.

// Flags of a work record.
const (
	opWrite   = 1 << iota // Op.IsWrite
	opClassed             // a class field follows the value
)

// errBody is wrapped by every body decoding failure.
var errBody = errors.New("txn: malformed body")

// read is one read a site's yes-vote reports.
type read struct{ key, value string }

func appendField(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendOp appends op's work record; the receiving site is implied.
func appendOp(dst []byte, op Op) []byte {
	var flags byte
	if op.IsWrite {
		flags |= opWrite
	}
	if op.Class != "" {
		flags |= opClassed
	}
	dst = appendField(appendField(append(dst, flags), op.Key), op.Value)
	if op.Class != "" {
		dst = appendField(dst, op.Class)
	}
	return dst
}

// appendRead appends one read's pair.
func appendRead(dst []byte, key, value string) []byte {
	return appendField(appendField(dst, key), value)
}

// field splits one length-prefixed field off b. A length written in more
// bytes than it needs is malformed: the last byte of a longer uvarint is
// never zero.
func field(b []byte) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || (w > 1 && b[w-1] == 0) || n > uint64(len(b)-w) {
		return "", nil, errBody
	}
	end := w + int(n)
	return string(b[w:end]), b[end:], nil
}

// DecodeOps decodes the work body of a commit request sent to site: the
// operations, in submission order, each naming site.
func DecodeOps(b []byte, site rt.NodeID) ([]Op, error) {
	var ops []Op
	for len(b) > 0 {
		flags := b[0]
		if flags&^(opWrite|opClassed) != 0 {
			return nil, errBody
		}
		op := Op{Site: site, IsWrite: flags&opWrite != 0}
		var err error
		if op.Key, b, err = field(b[1:]); err != nil {
			return nil, err
		}
		if op.Value, b, err = field(b); err != nil {
			return nil, err
		}
		if flags&opClassed != 0 {
			if op.Class, b, err = field(b); err != nil || op.Class == "" {
				return nil, errBody
			}
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// decodeReads decodes a yes-vote's read body.
func decodeReads(b []byte) ([]read, error) {
	var reads []read
	for len(b) > 0 {
		var r read
		var err error
		if r.key, b, err = field(b); err != nil {
			return nil, err
		}
		if r.value, b, err = field(b); err != nil {
			return nil, err
		}
		reads = append(reads, r)
	}
	return reads, nil
}
