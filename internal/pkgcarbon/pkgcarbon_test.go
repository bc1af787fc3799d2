package pkgcarbon

import (
	"math"
	"testing"

	"ecochip/internal/tech"
)

func chipletsOf(node int, areas ...float64) []Chiplet {
	n := tech.Default().MustGet(node)
	cs := make([]Chiplet, len(areas))
	for i, a := range areas {
		cs[i] = Chiplet{Name: name(i), AreaMM2: a, Node: n}
	}
	return cs
}

func name(i int) string { return string(rune('a' + i)) }

func TestParseArchitecture(t *testing.T) {
	cases := map[string]Architecture{
		"RDL": RDLFanout, "fanout": RDLFanout,
		"EMIB": SiliconBridge, "bridge": SiliconBridge,
		"passive": PassiveInterposer, "active": ActiveInterposer,
		"3D": ThreeD, "stacked": ThreeD,
	}
	for s, want := range cases {
		got, err := ParseArchitecture(s)
		if err != nil || got != want {
			t.Errorf("ParseArchitecture(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseArchitecture("wirebond"); err == nil {
		t.Error("unknown architecture should fail")
	}
}

func TestArchitectureStrings(t *testing.T) {
	for _, a := range Architectures {
		if s := a.String(); s == "" || s[0] == 'A' && len(s) > 12 {
			t.Errorf("architecture %d has suspicious name %q", int(a), s)
		}
	}
	for _, b := range []BondType{TSV, Microbump, HybridBond} {
		if b.String() == "" {
			t.Errorf("bond type %d has empty name", int(b))
		}
	}
}

func TestDefaultParamsValid(t *testing.T) {
	for _, a := range Architectures {
		p := DefaultParams(a)
		if a == ThreeD {
			// Hybrid default pitch check handled separately.
			p.Bond = Microbump
		}
		if err := p.Validate(); err != nil {
			t.Errorf("DefaultParams(%v) invalid: %v", a, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		f    func(*Params)
	}{
		{"nil node", func(p *Params) { p.PackagingNode = nil }},
		{"node too new", func(p *Params) { p.PackagingNode = tech.Default().MustGet(7) }},
		{"bad intensity", func(p *Params) { p.CarbonIntensity = 2 }},
		{"RDL layers low", func(p *Params) { p.RDLLayers = 1 }},
		{"RDL layers high", func(p *Params) { p.RDLLayers = 15 }},
		{"bridge layers", func(p *Params) { p.BridgeLayers = 7 }},
		{"bridge range", func(p *Params) { p.BridgeRangeMM = 0 }},
		{"NaN bridge range", func(p *Params) { p.BridgeRangeMM = math.NaN() }},
		{"infinite bridge range", func(p *Params) { p.BridgeRangeMM = math.Inf(1) }},
		{"NaN bridge area", func(p *Params) { p.BridgeAreaMM2 = math.NaN() }},
		{"embed energy", func(p *Params) { p.BridgeEmbedEnergyKWh = -1 }},
		{"interposer layers", func(p *Params) { p.InterposerBEOLLayers = 0 }},
		{"TSV pitch", func(p *Params) { p.Bond = TSV; p.BondPitchUM = 100 }},
		{"hybrid pitch", func(p *Params) { p.Bond = HybridBond; p.BondPitchUM = 20 }},
		{"router", func(p *Params) { p.Router.Ports = 0 }},
	}
	for _, m := range mutations {
		p := DefaultParams(RDLFanout)
		m.f(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("Validate should reject %s", m.name)
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	p := DefaultParams(RDLFanout)
	if _, err := Estimate(nil, p); err == nil {
		t.Error("empty chiplet list should fail")
	}
	if _, err := Estimate([]Chiplet{{Name: "x", AreaMM2: 0, Node: tech.Default().MustGet(7)}}, p); err == nil {
		t.Error("zero-area chiplet should fail")
	}
	if _, err := Estimate([]Chiplet{{Name: "x", AreaMM2: 100}}, p); err == nil {
		t.Error("nil chiplet node should fail")
	}
	bad := p
	bad.RDLLayers = 0
	if _, err := Estimate(chipletsOf(7, 100, 100), bad); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestRDLLinearInLayers(t *testing.T) {
	// Fig. 11(a): C_HI grows linearly with L_RDL at fixed yield... the
	// yield also compounds per layer, so growth is superlinear but
	// monotone. Verify monotone and roughly linear over Table I range.
	chips := chipletsOf(7, 250, 250)
	prev := 0.0
	for l := 3; l <= 9; l++ {
		p := DefaultParams(RDLFanout)
		p.RDLLayers = l
		res, err := Estimate(chips, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.PackageKg <= prev {
			t.Errorf("C_RDL with %d layers (%g) should exceed %d layers (%g)", l, res.PackageKg, l-1, prev)
		}
		prev = res.PackageKg
	}
}

func TestBridgeCountFromOverlap(t *testing.T) {
	// Two 250 mm^2 square chiplets share a ~15.81 mm edge; with a 2 mm
	// bridge range that needs ceil(15.81/2) = 8 bridges.
	p := DefaultParams(SiliconBridge)
	res, err := Estimate(chipletsOf(7, 250, 250), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBridges != 8 {
		t.Errorf("NumBridges = %d, want 8", res.NumBridges)
	}
	// Doubling the range halves the bridge count (Fig. 11b trend).
	p.BridgeRangeMM = 4
	res2, err := Estimate(chipletsOf(7, 250, 250), p)
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumBridges != 4 {
		t.Errorf("NumBridges at 4mm range = %d, want 4", res2.NumBridges)
	}
	if res2.PackageKg >= res.PackageKg {
		t.Errorf("larger bridge range should lower C_HI: %g vs %g", res2.PackageKg, res.PackageKg)
	}
}

// Fig. 9 headline shape: for a 500 mm^2 logic block in 7nm split into N_c
// chiplets, EMIB has the least C_HI at N_c=2 and RDL wins by N_c=8;
// interposer architectures sit above both.
func TestFig9Crossover(t *testing.T) {
	hi := func(arch Architecture, nc int) float64 {
		areas := make([]float64, nc)
		for i := range areas {
			areas[i] = 500 / float64(nc)
		}
		res, err := Estimate(chipletsOf(7, areas...), DefaultParams(arch))
		if err != nil {
			t.Fatalf("%v nc=%d: %v", arch, nc, err)
		}
		return res.TotalKg()
	}
	// N_c = 2: EMIB strictly cheapest among 2D architectures.
	if !(hi(SiliconBridge, 2) < hi(RDLFanout, 2)) {
		t.Errorf("EMIB at Nc=2 (%g) should beat RDL (%g)", hi(SiliconBridge, 2), hi(RDLFanout, 2))
	}
	// N_c = 8: RDL cheapest.
	if !(hi(RDLFanout, 8) < hi(SiliconBridge, 8)) {
		t.Errorf("RDL at Nc=8 (%g) should beat EMIB (%g)", hi(RDLFanout, 8), hi(SiliconBridge, 8))
	}
	// Interposers above RDL at every N_c.
	for _, nc := range []int{2, 4, 6, 8} {
		if !(hi(PassiveInterposer, nc) > hi(RDLFanout, nc)) {
			t.Errorf("passive interposer at Nc=%d should exceed RDL", nc)
		}
		if !(hi(ActiveInterposer, nc) > hi(PassiveInterposer, nc)) {
			t.Errorf("active interposer at Nc=%d should exceed passive", nc)
		}
	}
}

// Fig. 9: 3D stack C_HI falls as the same logic is split across more
// tiers (smaller footprint means fewer bonds, despite worse assembly
// yield).
func Test3DTierTrend(t *testing.T) {
	prev := math.Inf(1)
	for _, tiers := range []int{2, 3, 4} {
		areas := make([]float64, tiers)
		for i := range areas {
			areas[i] = 500 / float64(tiers)
		}
		res, err := Estimate(chipletsOf(7, areas...), DefaultParams(ThreeD))
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalKg() >= prev {
			t.Errorf("3D C_HI with %d tiers (%g) should be below %d tiers (%g)", tiers, res.TotalKg(), tiers-1, prev)
		}
		prev = res.TotalKg()
	}
}

// Fig. 11(d): larger TSV pitch means fewer TSVs and better yield, hence
// lower C_HI.
func TestTSVPitchTrend(t *testing.T) {
	prev := math.Inf(1)
	for _, pitch := range []float64{10, 20, 30, 45} {
		p := DefaultParams(ThreeD)
		p.Bond = TSV
		p.BondPitchUM = pitch
		res, err := Estimate(chipletsOf(7, 100, 100), p)
		if err != nil {
			t.Fatal(err)
		}
		if res.PackageKg >= prev {
			t.Errorf("3D C_HI at pitch %g (%g) should be below previous (%g)", pitch, res.PackageKg, prev)
		}
		prev = res.PackageKg
	}
}

// Fig. 11(c): older interposer nodes have lower EPA, hence lower C_HI.
func TestInterposerNodeTrend(t *testing.T) {
	prev := 0.0
	for _, nm := range []int{65, 40, 28, 22} {
		p := DefaultParams(ActiveInterposer)
		p.PackagingNode = tech.Default().MustGet(nm)
		res, err := Estimate(chipletsOf(7, 60, 40, 20), p)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 && res.TotalKg() <= prev {
			t.Errorf("active interposer at %dnm (%g) should exceed older node (%g)", nm, res.TotalKg(), prev)
		}
		prev = res.TotalKg()
	}
}

// Passive interposers host routers in the chiplets (advanced node, small
// area); active interposers host them in the packaging node (older,
// larger). The paper notes active-interposer routing overheads exceed
// passive ones.
func TestRoutingOverheadActiveVsPassive(t *testing.T) {
	chips := chipletsOf(7, 100, 100, 100)
	pas, err := Estimate(chips, DefaultParams(PassiveInterposer))
	if err != nil {
		t.Fatal(err)
	}
	act, err := Estimate(chips, DefaultParams(ActiveInterposer))
	if err != nil {
		t.Fatal(err)
	}
	if pas.RouterAreaPerChipletMM2 <= 0 {
		t.Error("passive interposer should add router area to chiplets")
	}
	if act.RouterAreaPerChipletMM2 != 0 {
		t.Error("active interposer routers live in the interposer, not chiplets")
	}
	if act.RoutingKg <= pas.RoutingKg {
		t.Errorf("active routing carbon (%g) should exceed passive (%g): 65nm routers are larger",
			act.RoutingKg, pas.RoutingKg)
	}
	if pas.RouterTotalPowerW <= 0 || act.RouterTotalPowerW <= 0 {
		t.Error("interposer NoCs must report positive router power")
	}
}

// PHY overheads for RDL/EMIB must be small compared to interposer
// routing ("small additional areas when compared to the chiplets").
func TestPHYOverheadSmall(t *testing.T) {
	chips := chipletsOf(7, 200, 200)
	rdl, err := Estimate(chips, DefaultParams(RDLFanout))
	if err != nil {
		t.Fatal(err)
	}
	if rdl.RoutingKg <= 0 {
		t.Error("RDL should carry a PHY routing term")
	}
	if rdl.RoutingKg > 0.2*rdl.PackageKg {
		t.Errorf("PHY carbon (%g) should be small vs package carbon (%g)", rdl.RoutingKg, rdl.PackageKg)
	}
	if rdl.RouterTotalPowerW != 0 {
		t.Error("RDL PHY power is folded into system power, not reported as router power")
	}
}

func TestAssemblyYieldInRange(t *testing.T) {
	for _, arch := range Architectures {
		res, err := Estimate(chipletsOf(7, 120, 80, 60), DefaultParams(arch))
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if res.AssemblyYield <= 0 || res.AssemblyYield > 1 {
			t.Errorf("%v: assembly yield %g outside (0, 1]", arch, res.AssemblyYield)
		}
		if res.TotalKg() <= 0 {
			t.Errorf("%v: total C_HI %g should be positive", arch, res.TotalKg())
		}
	}
}

// 2.5D interposers carry escape TSVs to the substrate (Fig. 4c).
func TestInterposerHasEscapeTSVs(t *testing.T) {
	for _, arch := range []Architecture{PassiveInterposer, ActiveInterposer} {
		res, err := Estimate(chipletsOf(7, 100, 80), DefaultParams(arch))
		if err != nil {
			t.Fatal(err)
		}
		if res.NumBonds <= 0 {
			t.Errorf("%v: interposer should report escape TSVs", arch)
		}
		// TSV count follows the package area at the escape pitch.
		pitchMM := 45.0 / 1000
		want := res.PackageAreaMM2 / (pitchMM * pitchMM)
		if res.NumBonds != want {
			t.Errorf("%v: TSVs = %g, want %g", arch, res.NumBonds, want)
		}
	}
	// RDL and EMIB have no TSVs.
	res, err := Estimate(chipletsOf(7, 100, 80), DefaultParams(RDLFanout))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBonds != 0 {
		t.Error("RDL fanout should not report TSVs")
	}
}

func Test3DFootprintIsMaxTier(t *testing.T) {
	res, err := Estimate(chipletsOf(7, 120, 80, 60), DefaultParams(ThreeD))
	if err != nil {
		t.Fatal(err)
	}
	if res.PackageAreaMM2 != 120 {
		t.Errorf("3D footprint = %g, want 120 (largest tier)", res.PackageAreaMM2)
	}
	if res.Floorplan != nil {
		t.Error("3D stacks do not carry a 2D floorplan")
	}
	if res.NumBonds <= 0 {
		t.Error("3D stack must report bond count")
	}
}

func TestHybridBondsCheaperThanBumps(t *testing.T) {
	chips := chipletsOf(7, 100, 100)
	bump := DefaultParams(ThreeD)
	hybrid := DefaultParams(ThreeD)
	hybrid.Bond = HybridBond
	hybrid.BondPitchUM = 5
	rb, err := Estimate(chips, bump)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Estimate(chips, hybrid)
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid bonds are ~50x denser but ~40x cheaper per bond; the
	// denser grid should still cost more carbon in total than bumps
	// at minimum pitch.
	if rh.NumBonds <= rb.NumBonds {
		t.Error("hybrid bonding should yield more bonds at finer pitch")
	}
	if rh.TotalKg() <= 0 {
		t.Error("hybrid bond carbon must be positive")
	}
}

func TestEnergyPerBondOverride(t *testing.T) {
	p := DefaultParams(ThreeD)
	p.EnergyPerBondKWh = 10 * EnergyPerBumpKWh
	base, err := Estimate(chipletsOf(7, 100, 100), DefaultParams(ThreeD))
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := Estimate(chipletsOf(7, 100, 100), p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(boosted.PackageKg/base.PackageKg-10) > 1e-9 {
		t.Errorf("energy override should scale package carbon 10x, got %g", boosted.PackageKg/base.PackageKg)
	}
}

// Flexible floorplanning can only shrink the package, hence the RDL
// carbon.
func TestFlexibleFloorplanHelps(t *testing.T) {
	chips := chipletsOf(7, 400, 50, 30)
	fixed, err := Estimate(chips, DefaultParams(RDLFanout))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(RDLFanout)
	p.FlexibleFloorplan = true
	flex, err := Estimate(chips, p)
	if err != nil {
		t.Fatal(err)
	}
	if flex.PackageAreaMM2 > fixed.PackageAreaMM2+1e-9 {
		t.Errorf("flexible package area %.1f should not exceed fixed %.1f",
			flex.PackageAreaMM2, fixed.PackageAreaMM2)
	}
	if flex.PackageKg > fixed.PackageKg+1e-9 {
		t.Errorf("flexible package carbon %.3f should not exceed fixed %.3f",
			flex.PackageKg, fixed.PackageKg)
	}
}

func TestWhitespaceReported(t *testing.T) {
	res, err := Estimate(chipletsOf(7, 100, 80, 60), DefaultParams(RDLFanout))
	if err != nil {
		t.Fatal(err)
	}
	if res.WhitespaceMM2 <= 0 {
		t.Error("multi-chiplet package must carry whitespace")
	}
	if res.PackageAreaMM2 <= 240 {
		t.Errorf("package area %g should exceed total chiplet area 240", res.PackageAreaMM2)
	}
}
