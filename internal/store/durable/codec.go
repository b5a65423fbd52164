// Wire formats for the durable store: framed records on disk, with the
// payload bits encoded through the transport codec (the same encoder
// the reconciliation protocols use on the network).
//
// Every on-disk record — a journal entry, a snapshot, a persisted set
// configuration — is one frame:
//
//	u32le payload length | u32le CRC32-C of payload | payload bytes
//
// Readers validate the length against both maxFrameLen and the bytes
// actually remaining BEFORE allocating or slicing, so a hostile or
// torn length prefix can neither panic nor balloon allocation (the
// same discipline iblt.DecodeFrom applies to network input). A frame
// that fails these checks classifies as either torn (plausibly a
// crashed writer: truncated mid-frame) or corrupt (checksum mismatch,
// absurd length); recovery stops cleanly at the first such frame.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/setsets"
	"repro/internal/transport"
)

const (
	// frameHeaderLen is the fixed prefix: u32le length + u32le CRC32-C.
	frameHeaderLen = 8
	// maxFrameLen bounds a single record payload (64 MiB). Anything
	// larger is rejected before allocation — a frame cannot ask the
	// reader for more memory than this, whatever its length field says.
	maxFrameLen = 1 << 26

	// Payload magics, so a snapshot handed to the journal reader (or a
	// truncated rename landing the wrong file) fails loudly instead of
	// decoding garbage.
	journalMagic  = 0x52575301 // "RWS" + format version 1
	snapshotMagic = 0x52534e01 // "RSN" + 1
	configMagic   = 0x52434602 // "RCF" + 2

	// maxSnapshotPoints bounds the multiset cardinality a snapshot may
	// expand to; a hostile count field is rejected before the rebuild
	// allocates.
	maxSnapshotPoints = 1 << 22
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// errTorn marks a frame the writer plausibly died inside: fewer
	// bytes remain than the header or the declared payload needs.
	// Recovery treats everything from here on as lost tail.
	errTorn = errors.New("durable: torn record (truncated frame)")
	// errCorrupt marks a frame that is structurally present but wrong:
	// checksum mismatch, hostile length, bad magic, or a payload the
	// decoder rejects.
	errCorrupt = errors.New("durable: corrupt record")
)

// appendFrame appends one framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// nextFrame reads the frame starting at data[off], returning the
// payload (aliasing data) and the offset of the next frame. Length is
// validated against maxFrameLen and the remaining input before any
// slicing; the checksum is verified before the payload is returned.
func nextFrame(data []byte, off int) (payload []byte, next int, err error) {
	rest := len(data) - off
	if rest < frameHeaderLen {
		return nil, off, errTorn
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	if n > maxFrameLen {
		return nil, off, fmt.Errorf("%w: length %d exceeds %d", errCorrupt, n, maxFrameLen)
	}
	if n > rest-frameHeaderLen {
		return nil, off, errTorn
	}
	want := binary.LittleEndian.Uint32(data[off+4 : off+8])
	payload = data[off+frameHeaderLen : off+frameHeaderLen+n]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, off, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	return payload, off + frameHeaderLen + n, nil
}

// ---- journal records ----

// encodeRecord writes one journal record payload: magic, the epoch the
// batch closes, and the ops.
func encodeRecord(e *transport.Encoder, epoch uint64, ops []live.Op) {
	e.WriteBits(journalMagic, 32)
	e.WriteUvarint(epoch)
	e.WriteUvarint(uint64(len(ops)))
	for _, op := range ops {
		e.WriteBool(op.Remove)
		op.Point.Encode(e)
	}
}

// decodeRecord parses one journal record payload. Counts are checked
// against the bytes remaining before any slice is sized from them.
func decodeRecord(d *transport.Decoder, epoch *uint64, ops []live.Op) ([]live.Op, error) {
	if err := expectMagic(d, journalMagic); err != nil {
		return nil, err
	}
	ep, err := d.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: epoch: %v", errCorrupt, err)
	}
	nops, err := d.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: op count: %v", errCorrupt, err)
	}
	// Each op needs at least a remove flag and a dimension, > 1 byte.
	if nops > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: op count %d exceeds payload", errCorrupt, nops)
	}
	ops = ops[:0]
	for i := uint64(0); i < nops; i++ {
		rm, err := d.ReadBool()
		if err != nil {
			return nil, fmt.Errorf("%w: op %d: %v", errCorrupt, i, err)
		}
		pt, err := metric.DecodePoint(d)
		if err != nil {
			return nil, fmt.Errorf("%w: op %d: %v", errCorrupt, i, err)
		}
		ops = append(ops, live.Op{Remove: rm, Point: pt})
	}
	*epoch = ep
	return ops, nil
}

func expectMagic(d *transport.Decoder, want uint64) error {
	got, err := d.ReadBits(32)
	if err != nil {
		return fmt.Errorf("%w: magic: %v", errCorrupt, err)
	}
	if got != want {
		return fmt.Errorf("%w: magic %08x, want %08x", errCorrupt, got, want)
	}
	return nil
}

// ---- snapshots ----

// snapEntry is one distinct point with its multiplicity, in the set's
// insertion order (the order live.Set emits snapshots in — preserving
// it is what makes recovered wire bytes identical).
type snapEntry struct {
	pt    metric.Point
	count int
}

// encodeSnapshot writes a snapshot payload: magic, the epoch the state
// is current to, and the distinct entries in insertion order.
func encodeSnapshot(e *transport.Encoder, epoch uint64, entries []snapEntry) {
	e.WriteBits(snapshotMagic, 32)
	e.WriteUvarint(epoch)
	e.WriteUvarint(uint64(len(entries)))
	for _, en := range entries {
		e.WriteUvarint(uint64(en.count))
		en.pt.Encode(e)
	}
}

// decodeSnapshot parses a snapshot payload. The distinct count and the
// total expanded cardinality are both bounded before allocation.
func decodeSnapshot(d *transport.Decoder) (epoch uint64, entries []snapEntry, err error) {
	if err := expectMagic(d, snapshotMagic); err != nil {
		return 0, nil, err
	}
	epoch, err = d.ReadUvarint()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: epoch: %v", errCorrupt, err)
	}
	n, err := d.ReadUvarint()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: entry count: %v", errCorrupt, err)
	}
	// Each entry needs at least a count and a dimension, ≥ 2 bytes.
	if n > uint64(d.Remaining())/2 {
		return 0, nil, fmt.Errorf("%w: entry count %d exceeds payload", errCorrupt, n)
	}
	entries = make([]snapEntry, 0, n)
	total := uint64(0)
	for i := uint64(0); i < n; i++ {
		cnt, err := d.ReadUvarint()
		if err != nil {
			return 0, nil, fmt.Errorf("%w: entry %d count: %v", errCorrupt, i, err)
		}
		if cnt == 0 {
			return 0, nil, fmt.Errorf("%w: entry %d has zero count", errCorrupt, i)
		}
		total += cnt
		if total > maxSnapshotPoints {
			return 0, nil, fmt.Errorf("%w: cardinality exceeds %d", errCorrupt, maxSnapshotPoints)
		}
		pt, err := metric.DecodePoint(d)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: entry %d: %v", errCorrupt, i, err)
		}
		entries = append(entries, snapEntry{pt: pt, count: int(cnt)})
	}
	return epoch, entries, nil
}

// ---- set configuration ----

// encodeConfig persists the wire-relevant live.Config.
func encodeConfig(e *transport.Encoder, cfg live.Config) {
	e.WriteBits(configMagic, 32)
	e.WriteBool(cfg.EMD != nil)
	if cfg.EMD != nil {
		p := *cfg.EMD
		writeSpace(e, p.Space)
		e.WriteUvarint(uint64(p.N))
		e.WriteUvarint(uint64(p.K))
		e.WriteUint64(math.Float64bits(p.D1))
		e.WriteUint64(math.Float64bits(p.D2))
		e.WriteUvarint(uint64(p.Q))
		e.WriteUvarint(uint64(p.CellsPerLevel))
		e.WriteUvarint(uint64(p.KeyBits))
		e.WriteUint64(p.Seed)
	}
	e.WriteBool(cfg.Gap != nil)
	if cfg.Gap != nil {
		p := *cfg.Gap
		writeSpace(e, p.Space)
		e.WriteUvarint(uint64(p.N))
		e.WriteUint64(math.Float64bits(p.R1))
		e.WriteUint64(math.Float64bits(p.R2))
		e.WriteUvarint(uint64(p.HFactor))
		e.WriteUint64(p.Seed)
		ss := p.SetSets
		e.WriteUvarint(uint64(ss.PayloadBytes))
		e.WriteUint64(ss.Seed)
		e.WriteUvarint(uint64(ss.StrataCells))
		e.WriteUvarint(uint64(ss.Q))
		e.WriteUvarint(uint64(ss.MaxRetries))
		e.WriteUint64(math.Float64bits(ss.SafetyFactor))
	}
	e.WriteBool(cfg.Sync != nil)
	if cfg.Sync != nil {
		e.WriteUint64(cfg.Sync.Seed)
	}
}

// decodeConfig parses a persisted configuration. Integer fields are
// bounds-checked into int; live.NewSet revalidates semantics.
func decodeConfig(d *transport.Decoder) (live.Config, error) {
	var cfg live.Config
	if err := expectMagic(d, configMagic); err != nil {
		return cfg, err
	}
	hasEMD, err := d.ReadBool()
	if err != nil {
		return cfg, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if hasEMD {
		var p emd.Params
		if p.Space, err = readSpace(d); err == nil {
			p.N, err = readInt(d)
		}
		if err == nil {
			p.K, err = readInt(d)
		}
		if err == nil {
			p.D1, err = readFloat(d)
		}
		if err == nil {
			p.D2, err = readFloat(d)
		}
		if err == nil {
			p.Q, err = readInt(d)
		}
		if err == nil {
			p.CellsPerLevel, err = readInt(d)
		}
		var kb int
		if err == nil {
			kb, err = readInt(d)
		}
		p.KeyBits = uint(kb)
		if err == nil {
			p.Seed, err = d.ReadUint64()
		}
		if err != nil {
			return cfg, fmt.Errorf("%w: emd params: %v", errCorrupt, err)
		}
		cfg.EMD = &p
	}
	hasGap, err := d.ReadBool()
	if err != nil {
		return cfg, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if hasGap {
		var p gap.Params
		if p.Space, err = readSpace(d); err == nil {
			p.N, err = readInt(d)
		}
		if err == nil {
			p.R1, err = readFloat(d)
		}
		if err == nil {
			p.R2, err = readFloat(d)
		}
		if err == nil {
			p.HFactor, err = readInt(d)
		}
		if err == nil {
			p.Seed, err = d.ReadUint64()
		}
		var ss setsets.Params
		if err == nil {
			ss.PayloadBytes, err = readInt(d)
		}
		if err == nil {
			ss.Seed, err = d.ReadUint64()
		}
		if err == nil {
			ss.StrataCells, err = readInt(d)
		}
		if err == nil {
			ss.Q, err = readInt(d)
		}
		if err == nil {
			ss.MaxRetries, err = readInt(d)
		}
		if err == nil {
			ss.SafetyFactor, err = readFloat(d)
		}
		p.SetSets = ss
		if err != nil {
			return cfg, fmt.Errorf("%w: gap params: %v", errCorrupt, err)
		}
		cfg.Gap = &p
	}
	hasSync, err := d.ReadBool()
	if err != nil {
		return cfg, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if hasSync {
		var sc live.SyncConfig
		if sc.Seed, err = d.ReadUint64(); err != nil {
			return cfg, fmt.Errorf("%w: sync config: %v", errCorrupt, err)
		}
		cfg.Sync = &sc
	}
	if cfg.EMD == nil && cfg.Gap == nil && cfg.Sync == nil {
		return cfg, fmt.Errorf("%w: config enables no structure", errCorrupt)
	}
	return cfg, nil
}

func writeSpace(e *transport.Encoder, sp metric.Space) {
	e.WriteVarint(int64(sp.Delta))
	e.WriteUvarint(uint64(sp.Dim))
	e.WriteUvarint(uint64(sp.Norm))
}

func readSpace(d *transport.Decoder) (metric.Space, error) {
	var sp metric.Space
	delta, err := d.ReadVarint()
	if err != nil {
		return sp, err
	}
	if delta < 0 || delta > math.MaxInt32 {
		return sp, fmt.Errorf("delta %d out of range", delta)
	}
	sp.Delta = int32(delta)
	if sp.Dim, err = readInt(d); err != nil {
		return sp, err
	}
	norm, err := readInt(d)
	if err != nil {
		return sp, err
	}
	sp.Norm = metric.Norm(norm)
	return sp, nil
}

// readInt decodes a uvarint that must fit a non-negative int32 — every
// count, size, and tuning knob we persist is far below that, and the
// bound keeps a hostile config from smuggling a negative or enormous
// value into a downstream make().
func readInt(d *transport.Decoder) (int, error) {
	v, err := d.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("value %d out of range", v)
	}
	return int(v), nil
}

func readFloat(d *transport.Decoder) (float64, error) {
	bits, err := d.ReadUint64()
	if err != nil {
		return 0, err
	}
	f := math.Float64frombits(bits)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("non-finite float")
	}
	return f, nil
}
