package units

import "testing"

func TestUnitNames(t *testing.T) {
	want := []string{"PFU", "IMC", "DPU", "LSU", "DMC", "BIU", "SCU"}
	for i, name := range want {
		u := Unit(i)
		if u.String() != name {
			t.Errorf("unit %d = %q, want %q", i, u.String(), name)
		}
		if !u.Valid() {
			t.Errorf("unit %d invalid", i)
		}
	}
	if Unit(99).Valid() {
		t.Error("unit 99 valid")
	}
	if Unit(99).String() == "" {
		t.Error("out-of-range unit has empty name")
	}
}

func TestFineCoarseMapping(t *testing.T) {
	pairs := map[Fine]Unit{
		FinePFU:        PFU,
		FineIMC:        IMC,
		FineLSU:        LSU,
		FineDMC:        DMC,
		FineBIU:        BIU,
		FineSCU:        SCU,
		FineDPUDecode:  DPU,
		FineDPUOperand: DPU,
		FineDPURegFile: DPU,
		FineDPUALU:     DPU,
		FineDPUMul:     DPU,
		FineDPUDiv:     DPU,
		FineDPURetire:  DPU,
	}
	if len(pairs) != NumFine {
		t.Fatalf("test covers %d fine units, want %d", len(pairs), NumFine)
	}
	for f, u := range pairs {
		if f.Coarse() != u {
			t.Errorf("%v.Coarse() = %v, want %v", f, f.Coarse(), u)
		}
	}
}

func TestDPUSubUnits(t *testing.T) {
	count := 0
	for _, f := range allFine() {
		if f.isDPUSub() {
			count++
			if f.Coarse() != DPU {
				t.Errorf("%v claims DPU sub-unit but maps to %v", f, f.Coarse())
			}
		}
	}
	// Section V-D: the DPU is broken down into 7 smaller units.
	if count != 7 {
		t.Fatalf("%d DPU sub-units, want 7", count)
	}
}

func TestEnumerations(t *testing.T) {
	if len(allUnits()) != NumUnits || NumUnits != 7 {
		t.Fatal("coarse enumeration wrong")
	}
	if len(allFine()) != NumFine || NumFine != 13 {
		t.Fatal("fine enumeration wrong")
	}
	seen := map[string]bool{}
	for _, f := range allFine() {
		name := f.String()
		if seen[name] {
			t.Errorf("duplicate fine name %q", name)
		}
		seen[name] = true
		if !f.Valid() {
			t.Errorf("%v invalid", f)
		}
	}
}
