package checkpoint

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cellgan/internal/core"
	"cellgan/internal/tensor"
)

func trainedArtifact(t *testing.T) (*core.Result, *MixtureArtifact) {
	t.Helper()
	res, err := core.RunSequential(tinyCfg(2), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExportMixture(res, res.BestRank)
	if err != nil {
		t.Fatal(err)
	}
	return res, a
}

func TestMixtureRoundTripBitExact(t *testing.T) {
	_, a := trainedArtifact(t)
	var buf bytes.Buffer
	if err := WriteMixture(&buf, a); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := ReadMixture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != a.Cfg {
		t.Fatal("config changed in transit")
	}
	if len(got.Ranks) != len(a.Ranks) {
		t.Fatalf("ranks %d want %d", len(got.Ranks), len(a.Ranks))
	}
	for i := range a.Ranks {
		if got.Ranks[i] != a.Ranks[i] {
			t.Fatalf("rank %d changed in transit", i)
		}
		if math.Float64bits(got.Weights[i]) != math.Float64bits(a.Weights[i]) {
			t.Fatalf("weight %d changed in transit", i)
		}
		if !bytes.Equal(got.GenParams[i], a.GenParams[i]) {
			t.Fatalf("generator params %d changed in transit", i)
		}
	}
	// Re-serialising the decoded artifact must reproduce the stream
	// bit-for-bit.
	var buf2 bytes.Buffer
	if err := WriteMixture(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("serialisation is not bit-stable across a round trip")
	}
}

func TestMixtureArtifactSamplesMatchResult(t *testing.T) {
	// The artifact's rebuilt mixture must be the same generative model as
	// the one reconstructed directly from the run result: identical
	// samples under identical RNG streams.
	res, a := trainedArtifact(t)
	direct, err := res.MixtureFor(res.BestRank)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := a.Mixture()
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Sample(16, a.LatentDim(), tensor.NewRNG(7))
	got := loaded.Sample(16, a.LatentDim(), tensor.NewRNG(7))
	if !got.Equal(want) {
		t.Fatal("artifact mixture samples diverge from the run's mixture")
	}
}

func TestMixtureSaveLoadFile(t *testing.T) {
	_, a := trainedArtifact(t)
	path := filepath.Join(t.TempDir(), "best.mix")
	if err := SaveMixtureFile(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMixtureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != a.Cfg || len(got.Ranks) != len(a.Ranks) {
		t.Fatal("artifact changed across file round trip")
	}
	if _, err := got.Mixture(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMixtureRejectsCorruptStreams(t *testing.T) {
	_, a := trainedArtifact(t)
	var buf bytes.Buffer
	if err := WriteMixture(&buf, a); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadMixture(bytes.NewReader(good[:8])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := ReadMixture(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestHashMixtureMatchesBytesAndIsStable(t *testing.T) {
	_, a := trainedArtifact(t)
	h1, err := HashMixture(a)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashMixture(a)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not stable: %s vs %s", h1, h2)
	}
	var buf bytes.Buffer
	if err := WriteMixture(&buf, a); err != nil {
		t.Fatal(err)
	}
	if hb := HashMixtureBytes(buf.Bytes()); hb != h1 {
		t.Fatalf("byte hash %s != artifact hash %s", hb, h1)
	}
	// Any parameter perturbation must change the hash.
	b := *a
	b.GenParams = append([][]byte(nil), a.GenParams...)
	b.GenParams[0] = append([]byte(nil), a.GenParams[0]...)
	b.GenParams[0][0] ^= 0x01
	hm, err := HashMixture(&b)
	if err != nil {
		t.Fatal(err)
	}
	if hm == h1 {
		t.Fatal("hash insensitive to parameter change")
	}
}

func TestShardMixture(t *testing.T) {
	_, a := trainedArtifact(t)
	if len(a.Ranks) < 2 {
		t.Skipf("mixture too small to shard: %d members", len(a.Ranks))
	}
	of := 2
	seen := make(map[int]bool)
	totalMembers := 0
	for s := 0; s < of; s++ {
		sh, err := ShardMixture(a, s, of)
		if err != nil {
			t.Fatal(err)
		}
		if len(sh.Ranks) == 0 {
			t.Fatalf("shard %d is empty", s)
		}
		sum := 0.0
		for _, w := range sh.Weights {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("shard %d weights sum %g, want 1", s, sum)
		}
		for _, r := range sh.Ranks {
			if seen[r] {
				t.Fatalf("rank %d appears in two shards", r)
			}
			seen[r] = true
		}
		totalMembers += len(sh.Ranks)
		// A shard must itself be a loadable, sampleable artifact.
		if _, err := sh.Mixture(); err != nil {
			t.Fatalf("shard %d does not rebuild: %v", s, err)
		}
	}
	if totalMembers != len(a.Ranks) {
		t.Fatalf("shards cover %d members, mixture has %d", totalMembers, len(a.Ranks))
	}

	if _, err := ShardMixture(a, 2, 2); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := ShardMixture(a, 0, 0); err == nil {
		t.Fatal("zero shard count accepted")
	}
	if _, err := ShardMixture(a, 0, len(a.Ranks)+1); err == nil {
		t.Fatal("more shards than members accepted")
	}
	full, err := ShardMixture(a, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Ranks) != len(a.Ranks) {
		t.Fatalf("1-shard copy has %d members, want %d", len(full.Ranks), len(a.Ranks))
	}
}

func TestExportMixtureValidation(t *testing.T) {
	res, _ := trainedArtifact(t)
	if _, err := ExportMixture(res, -1); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := ExportMixture(res, len(res.Cells)); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestMixtureRejectsNonFiniteGeneratorParams poisons one generator weight
// with NaN (and, separately, +Inf) and requires every artifact path — write,
// read of correctly checksummed bytes, reconstruction, sharding, hashing and
// file load — to refuse it: one such weight turns every sample NaN.
func TestMixtureRejectsNonFiniteGeneratorParams(t *testing.T) {
	_, clean := trainedArtifact(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		ms, err := tensor.DecodeMats(bytes.NewReader(clean.GenParams[0]))
		if err != nil {
			t.Fatal(err)
		}
		ms[len(ms)-1].Data[0] = bad
		var blob bytes.Buffer
		if err := tensor.EncodeMats(&blob, ms); err != nil {
			t.Fatal(err)
		}
		a := *clean
		a.GenParams = append([][]byte{blob.Bytes()}, clean.GenParams[1:]...)

		if err := WriteMixture(new(bytes.Buffer), &a); err == nil {
			t.Fatalf("%g: WriteMixture accepted a non-finite generator", bad)
		}
		if _, err := a.Mixture(); err == nil {
			t.Fatalf("%g: Mixture accepted a non-finite generator", bad)
		}
		if _, err := ShardMixture(&a, 0, 1); err == nil {
			t.Fatalf("%g: ShardMixture accepted a non-finite generator", bad)
		}
		if _, err := HashMixture(&a); err == nil {
			t.Fatalf("%g: HashMixture accepted a non-finite generator", bad)
		}

		// Bytes with a valid checksum footer, as a buggy exporter would
		// write them: the footer passes, the parameters must not.
		var file bytes.Buffer
		if err := writeWithFooter(&file, func(w io.Writer) error { return writeMixtureBody(w, &a) }); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMixture(bytes.NewReader(file.Bytes())); err == nil {
			t.Fatalf("%g: ReadMixture accepted a non-finite generator", bad)
		}
		path := filepath.Join(t.TempDir(), "poisoned.mix")
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadMixtureFile(path); err == nil {
			t.Fatalf("%g: LoadMixtureFile accepted a non-finite generator", bad)
		}
	}
	// The clean artifact still passes every path.
	if err := WriteMixture(new(bytes.Buffer), clean); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Mixture(); err != nil {
		t.Fatal(err)
	}
}
