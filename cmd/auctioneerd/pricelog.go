package main

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"log/slog"
	"math"
	"sync"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/auctioneerapi"
	"tycoongrid/internal/durable"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/tsdb"
)

// maxPriceSamples bounds the retained price history at one week of
// 10-second reallocation ticks — enough to rebuild the widest ("week")
// prediction window after a restart.
const maxPriceSamples = 7 * 24 * 360

// snapshotTag opens every snapshot. Read as a price its bits are a NaN, so a
// snapshot of the earlier untagged, price-only format, which starts with a
// finite price, is never misread as samples.
var snapshotTag = []byte{'p', 'r', 'i', 'c', 'e', 's', 0xf8, 0xff}

// priceLog makes the market's week-long price ring (auction.Market.History)
// durable: one 16-byte record (price float bits, unixnano) per clear, and
// every `every` records a snapshot of the ring's samples in the same shape
// behind snapshotTag, so the WAL never grows past about one week.
type priceLog struct {
	mu    sync.Mutex
	store *durable.Store
	ring  *tsdb.Ring
	every int
	since int
}

// newService wraps market in the HTTP service with its hour, day and week
// /stats windows. With a data directory it also opens the price log under
// the fsync policy, which recovers the market's ring from dir, and seeds the
// windows from that ring; prices is nil without one. snapshotEvery <= 0
// snapshots once per maxPriceSamples records.
func newService(market *auction.Market, interval time.Duration, dir, fsync string, snapshotEvery int) (svc *auctioneerapi.Service, prices *priceLog, err error) {
	svc, err = auctioneerapi.NewService(market, map[string]int{
		"hour": int(time.Hour / interval),
		"day":  int(24 * time.Hour / interval),
		"week": int(7 * 24 * time.Hour / interval),
	})
	if err != nil || dir == "" {
		return svc, nil, err
	}
	policy, err := durable.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, nil, err
	}
	st, err := durable.Open(dir, durable.Options{Sync: policy})
	if err != nil {
		return nil, nil, err
	}
	l := &priceLog{store: st, ring: market.History(maxPriceSamples), every: cmp.Or(max(snapshotEvery, 0), maxPriceSamples)}
	_, err = st.Recover(func(snap []byte) error {
		samples, ok := bytes.CutPrefix(snap, snapshotTag)
		if !ok {
			return errors.New("price snapshot holds prices without timestamps (an earlier format); " +
				"move the -data-dir directory aside, or point -data-dir at an empty one, to start a fresh history")
		}
		l.replay(samples)
		return nil
	}, func(rec []byte) error {
		l.replay(rec)
		return nil
	})
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	svc.ReplayPrices(tsdb.Values(l.ring.Since(math.MinInt64)))
	slog.Info("auctioneerd: price history recovered", "samples", l.ring.Len(), "dir", dir)
	market.Observe(l.record) // after the ring: a snapshot there covers the record
	return svc, l, nil
}

// appendSample encodes one sample, its price and unix-nanosecond instant,
// onto dst: a WAL record and a snapshot entry alike.
func appendSample(dst []byte, price float64, ns int64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(price))
	return binary.LittleEndian.AppendUint64(dst, uint64(ns))
}

// replay records the encoded samples in b into the ring. One the ring or
// pricefeed.Check refuses, the live ring refused when it was journaled.
func (l *priceLog) replay(b []byte) {
	for ; len(b) >= 16; b = b[16:] {
		price, ns := math.Float64frombits(binary.LittleEndian.Uint64(b)), int64(binary.LittleEndian.Uint64(b[8:]))
		if pricefeed.Check(price, time.Unix(0, ns), time.Time{}, false) == nil {
			l.ring.AppendNanos(ns, price)
		}
	}
}

// record journals one tick's spot price. Price history is telemetry, not
// money: the append is asynchronous and errors surface on close.
func (l *priceLog) record(price float64, at time.Time) {
	var rec [16]byte

	// l.mu also serializes Append with Snapshot, which the durable.Store
	// contract requires of its caller.
	l.mu.Lock()
	defer l.mu.Unlock()
	l.store.AppendAsync(appendSample(rec[:0], price, at.UnixNano()))
	l.since++
	if l.since >= l.every {
		l.since = 0
		state := bytes.Clone(snapshotTag)
		for _, p := range l.ring.Since(math.MinInt64) {
			state = appendSample(state, p.V, p.T)
		}
		l.store.Snapshot(state)
	}
}

func (l *priceLog) close() error { return l.store.Close() }
