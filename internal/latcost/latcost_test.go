package latcost

import (
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/msg"
)

func TestPaperModelScales(t *testing.T) {
	full := Paper(1.0)
	half := Paper(0.5)
	if full.SQLWork != 185*time.Millisecond {
		t.Errorf("SQLWork = %v", full.SQLWork)
	}
	if half.SQLWork*2 != full.SQLWork {
		t.Errorf("scaling broken: %v vs %v", half.SQLWork, full.SQLWork)
	}
	if full.CoordForce != 12500*time.Microsecond {
		t.Errorf("CoordForce = %v", full.CoordForce)
	}
}

func TestPaperModelDefaultScale(t *testing.T) {
	m := Paper(0)
	if m.Scale != 0.02 {
		t.Errorf("default scale = %v", m.Scale)
	}
	if m.SQLWork <= 0 {
		t.Error("costs must be positive at default scale")
	}
}

func TestLatencyFuncTierPairs(t *testing.T) {
	m := Paper(1.0)
	f := m.LatencyFunc()
	hb := msg.Heartbeat{}
	tests := []struct {
		from, to id.NodeID
		want     time.Duration
	}{
		{id.AppServer(1), id.AppServer(2), m.AppApp},
		{id.AppServer(1), id.DBServer(1), m.AppDB},
		{id.DBServer(1), id.AppServer(2), m.AppDB},
		{id.Client(1), id.AppServer(1), m.ClientApp},
		{id.AppServer(1), id.Client(1), m.ClientApp},
	}
	for _, tt := range tests {
		if got := f(tt.from, tt.to, hb); got != tt.want {
			t.Errorf("latency %v->%v = %v, want %v", tt.from, tt.to, got, tt.want)
		}
	}
}

func TestModelPredictsPaperShape(t *testing.T) {
	// Analytic sanity check of the calibration BEFORE running the full
	// simulation: component sums must order baseline < AR < 2PC with AR
	// overhead in the low-to-mid teens and 2PC clearly above it.
	m := Paper(1.0)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	rtt := func(oneWay time.Duration) float64 { return 2 * ms(oneWay) }
	sql := ms(m.SQLWork) + 2*rtt(m.AppDB) // sleep op + add op round trips
	commitRound := rtt(m.AppDB) + ms(m.DBForce)
	prepareRound := rtt(m.AppDB) + ms(m.DBForce)
	regWrite := rtt(m.AppApp)
	clientEnds := ms(m.ClientStart) + ms(m.ClientEnd) + rtt(m.ClientApp)

	baseline := clientEnds + sql + commitRound
	ar := clientEnds + sql + 2*regWrite + prepareRound + commitRound
	twoPC := clientEnds + sql + 2*ms(m.CoordForce) + prepareRound + commitRound

	if !(baseline < ar && ar < twoPC) {
		t.Fatalf("ordering broken: baseline=%.1f ar=%.1f 2pc=%.1f", baseline, ar, twoPC)
	}
	arOver := (ar - baseline) / baseline * 100
	pcOver := (twoPC - baseline) / baseline * 100
	if arOver < 8 || arOver > 20 {
		t.Errorf("AR overhead %.1f%%, want in the paper's ballpark (16%%)", arOver)
	}
	if pcOver < arOver+3 {
		t.Errorf("2PC overhead %.1f%% must clearly exceed AR's %.1f%%", pcOver, arOver)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	h := r.Hooks()
	h.Span(rid, core.SpanSQL, 10*time.Millisecond)
	h.Span(rid, core.SpanSQL, 20*time.Millisecond)
	h.Span(rid, core.SpanPrepare, 5*time.Millisecond)
	if got := r.Mean(core.SpanSQL); got != 15 {
		t.Errorf("SQL mean = %v", got)
	}
	if got := r.Mean(core.SpanPrepare); got != 5 {
		t.Errorf("prepare mean = %v", got)
	}
	if got := r.Mean(core.SpanCommit); got != 0 {
		t.Errorf("unobserved span mean = %v", got)
	}
	if s := r.Summary(core.SpanSQL); s.N != 2 {
		t.Errorf("summary n = %d", s.N)
	}
}
