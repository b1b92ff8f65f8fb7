package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Record is one time-binned snapshot line in the telemetry JSONL stream. The
// first bin emits a baseline record for every registered metric so consumers
// (cmd/ssparse, cmd/ssplot) learn the full component population; later bins
// emit only metrics whose value changed during the bin.
//
// Fields: T is the bin-end tick; V the cumulative value (counter total, gauge
// level, histogram observation count); D the change during this bin; U the
// scaled per-bin rate for counters registered with a scale factor (channel
// utilization in [0,1], offered/delivered flits per cycle per terminal).
// M (histograms only) is the mean observed value so far.
type Record struct {
	T      uint64  `json:"t"`
	Comp   string  `json:"comp"`
	Metric string  `json:"metric"`
	Kind   string  `json:"kind"`
	VC     int     `json:"vc"` // -1 when not VC-resolved
	V      float64 `json:"v"`
	D      float64 `json:"d"`
	U      float64 `json:"u,omitempty"`
	M      float64 `json:"m,omitempty"`
}

// snapshot writes one bin of records covering (prevTick, tick] to enc.
// baseline forces a record for every metric regardless of change.
func (r *Registry) snapshot(enc *json.Encoder, tick uint64, binTicks uint64, baseline bool) error {
	r.mu.Lock()
	list := r.sortLocked()
	r.mu.Unlock()
	for _, m := range list {
		rec := Record{T: tick, Comp: m.comp, Metric: m.name, Kind: m.kind.String(), VC: m.vc}
		changed := false
		switch m.kind {
		case KindCounter:
			v := m.c.Load()
			d := v - m.lastC
			m.lastC = v
			rec.V, rec.D = float64(v), float64(d)
			if m.scale != 0 && binTicks > 0 {
				rec.U = float64(d) * m.scale / float64(binTicks)
			}
			changed = d != 0
		case KindGauge:
			v := m.g.Load()
			d := v - m.lastG
			m.lastG = v
			rec.V, rec.D = float64(v), float64(d)
			changed = d != 0
		case KindHist:
			hv := m.h.load()
			v := hv.count
			d := v - m.lastH
			m.lastH = v
			rec.V, rec.D = float64(v), float64(d)
			rec.M = hv.mean()
			changed = d != 0
		}
		if changed || baseline {
			if err := enc.Encode(&rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadRecords parses a telemetry JSONL stream, calling fn for each record.
// Blank lines are skipped; a malformed line aborts with a line-numbered
// error.
func ReadRecords(rd io.Reader, fn func(Record) error) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}
