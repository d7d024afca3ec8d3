package phr

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"typepre/internal/core"
	"typepre/internal/hybrid"
)

// Lifecycle regression tests: revocation vs the prepared-grant cache,
// category key rotation, and break-glass. The scenario package runs the
// same stories end to end as multi-step drills; these pin the individual
// mechanisms at unit granularity.

func TestRevokedGrantNotServedFromPreparedCache(t *testing.T) {
	s := newScenario(t)
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("bt O−"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	// Warm the prepared grant's pairing cache on every path.
	if _, err := s.svc.Read(rec.ID, s.bobKey); err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.DiscloseCategory(s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID); err != nil {
		t.Fatal(err)
	}

	if err := s.alice.Revoke(proxy, s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	// The warm cache must be unreachable on every disclosure path.
	if _, err := s.svc.Read(rec.ID, s.bobKey); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("serial path after revoke: want ErrNoGrant, got %v", err)
	}
	if _, err := proxy.DiscloseCategory(s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("bulk path after revoke: want ErrNoGrant, got %v", err)
	}
	yields := 0
	err = proxy.DiscloseCategoryStream(s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID,
		func(*hybrid.ReCiphertext) error { yields++; return nil })
	if !errors.Is(err, ErrNoGrant) || yields != 0 {
		t.Fatalf("stream path after revoke: err=%v yields=%d", err, yields)
	}
}

func TestRevokeKillsInFlightStream(t *testing.T) {
	const records = 4
	s := newScenario(t)
	for i := 0; i < records; i++ {
		if _, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)

	yields := 0
	err := proxy.DiscloseCategoryStream(s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID,
		func(*hybrid.ReCiphertext) error {
			yields++
			if yields == 1 {
				// The patient revokes while the stream is mid-flight.
				if err := s.alice.Revoke(proxy, s.bobKey.ID, CategoryEmergency); err != nil {
					t.Errorf("mid-stream revoke: %v", err)
				}
			}
			return nil
		})
	if !errors.Is(err, ErrNoGrant) {
		t.Fatalf("in-flight stream survived revocation: err=%v", err)
	}
	if yields != 1 {
		t.Fatalf("stream released %d records after revocation, want 1", yields)
	}
	// Audit: exactly one granted entry (the delivered record) and one
	// denial for the terminated stream.
	log := proxy.Audit()
	if got := len(log.ByOutcome(OutcomeGranted)); got != 1 {
		t.Fatalf("granted audit entries = %d, want 1", got)
	}
	denials := log.Denials()
	if len(denials) != 1 || denials[0].Outcome != OutcomeNoGrant {
		t.Fatalf("denials = %+v, want one no-grant entry", denials)
	}
}

func TestReinstallMidStreamAlsoKillsOldStream(t *testing.T) {
	// Re-keying (revoke + fresh grant) mid-stream must not let the old
	// stream keep serving from its snapshot of the retired grant.
	s := newScenario(t)
	for i := 0; i < 3; i++ {
		if _, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	yields := 0
	err := proxy.DiscloseCategoryStream(s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID,
		func(*hybrid.ReCiphertext) error {
			yields++
			if yields == 1 {
				if err := s.svc.Grant(s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
					t.Errorf("mid-stream re-grant: %v", err)
				}
			}
			return nil
		})
	if !errors.Is(err, ErrNoGrant) || yields != 1 {
		t.Fatalf("old stream survived re-keying: err=%v yields=%d", err, yields)
	}
	// The fresh grant serves normally.
	if _, err := proxy.DiscloseCategory(s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID); err != nil {
		t.Fatal(err)
	}
}

func TestRotateTypeKeyLifecycle(t *testing.T) {
	s := newScenario(t)
	want := [][]byte{[]byte("metformin 500mg"), []byte("lisinopril 10mg"), []byte("atorvastatin 20mg")}
	var ids []string
	for _, b := range want {
		rec, err := s.alice.AddRecord(s.svc.Store, CategoryMedication, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryMedication); err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.ReadCategory(s.alice.ID(), CategoryMedication, s.bobKey); err != nil {
		t.Fatal(err)
	}

	n, err := s.alice.RotateTypeKey(s.svc.Store, CategoryMedication, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("rotated %d records, want %d", n, len(want))
	}
	if got := s.alice.Epoch(CategoryMedication); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	// Every stored record is re-sealed under the epoch-1 wire type, still
	// indexed under the logical category.
	wantType := core.VersionedType(core.Type(CategoryMedication), 1)
	recs := mustList(t, s.svc.Store, s.alice.ID(), CategoryMedication)
	if len(recs) != len(want) {
		t.Fatalf("store lists %d records after rotation, want %d", len(recs), len(want))
	}
	for _, rec := range recs {
		if rec.Sealed.KEM.Type != wantType {
			t.Fatalf("record %s sealed as %q, want %q", rec.ID, rec.Sealed.KEM.Type, wantType)
		}
	}
	// The pre-rotation grant is dead on both paths, audited as stale.
	proxy, _ := s.svc.ProxyFor(CategoryMedication)
	if _, err := s.svc.Read(ids[0], s.bobKey); !errors.Is(err, ErrStaleGrant) {
		t.Fatalf("serial path on stale grant: want ErrStaleGrant, got %v", err)
	}
	if _, err := proxy.DiscloseCategory(s.svc.Store, s.alice.ID(), CategoryMedication, s.bobKey.ID); !errors.Is(err, ErrStaleGrant) {
		t.Fatalf("bulk path on stale grant: want ErrStaleGrant, got %v", err)
	}
	if got := len(proxy.Audit().ByOutcome(OutcomeStaleGrant)); got != 2 {
		t.Fatalf("stale-grant audit entries = %d, want 2", got)
	}
	// The owner still reads everything.
	for i, id := range ids {
		got, err := s.alice.ReadOwn(s.svc.Store, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("owner read of %s mismatch after rotation", id)
		}
	}
	// A fresh grant replaces the stale one and discloses the same
	// plaintexts.
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryMedication); err != nil {
		t.Fatal(err)
	}
	if got := proxy.GrantCount(); got != 1 {
		t.Fatalf("grant count after re-grant = %d, want 1 (stale grant replaced)", got)
	}
	bodies, err := s.svc.ReadCategory(s.alice.ID(), CategoryMedication, s.bobKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != len(want) {
		t.Fatalf("post-rotation disclosure returned %d records, want %d", len(bodies), len(want))
	}
	for i := range want {
		if !bytes.Equal(bodies[i], want[i]) {
			t.Fatalf("post-rotation record %d mismatch", i)
		}
	}
}

func TestBreakGlassLifecycle(t *testing.T) {
	s := newScenario(t)
	emergency := [][]byte{[]byte("blood type O−"), []byte("allergy: penicillin")}
	for _, b := range emergency {
		if _, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.alice.AddRecord(s.svc.Store, CategoryMedication, []byte("private"), nil); err != nil {
		t.Fatal(err)
	}
	// The responder holds a standing emergency grant — break-glass cannot
	// conjure access that was never delegated.
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}

	// A reason is mandatory, and its absence leaks nothing.
	if _, err := s.svc.BreakGlass(s.alice.ID(), s.bobKey.ID, ""); !errors.Is(err, ErrBreakGlassReason) {
		t.Fatalf("break-glass without reason: want ErrBreakGlassReason, got %v", err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	if proxy.Audit().Len() != 0 {
		t.Fatal("reason-less break-glass attempt produced audit traffic")
	}

	const reason = "cardiac arrest, ER admission #4711"
	rcts, err := s.svc.BreakGlass(s.alice.ID(), s.bobKey.ID, reason)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcts) != len(emergency) {
		t.Fatalf("break-glass disclosed %d records, want %d", len(rcts), len(emergency))
	}
	for i, rct := range rcts {
		got, err := hybrid.DecryptReEncrypted(s.bobKey, rct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, emergency[i]) {
			t.Fatalf("break-glass record %d mismatch", i)
		}
	}
	// Every released record carries the distinguishable outcome and the
	// reason; none counts as a denial.
	entries := proxy.Audit().ByOutcome(OutcomeBreakGlass)
	if len(entries) != len(emergency) {
		t.Fatalf("break-glass audit entries = %d, want %d", len(entries), len(emergency))
	}
	for _, e := range entries {
		if e.Note != reason {
			t.Fatalf("break-glass entry lost its reason: %+v", e)
		}
	}
	if len(proxy.Audit().Denials()) != 0 {
		t.Fatal("break-glass access counted as a denial")
	}
	// Break-glass is emergency-only: the responder still cannot touch
	// other categories, and an unauthorized requester is denied with the
	// reason on record.
	if _, err := s.svc.ReadCategory(s.alice.ID(), CategoryMedication, s.bobKey); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("break-glass responder read a non-emergency category: %v", err)
	}
	if _, err := s.svc.BreakGlass(s.alice.ID(), s.eveKey.ID, reason); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("unauthorized break-glass: want ErrNoGrant, got %v", err)
	}
	denials := proxy.Audit().Denials()
	if len(denials) != 1 || denials[0].Outcome != OutcomeNoGrant || denials[0].Note != reason {
		t.Fatalf("unauthorized break-glass denial = %+v", denials)
	}
}
