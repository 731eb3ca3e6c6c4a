package colors

import "testing"

func TestHex(t *testing.T) {
	if got := Red.Hex(); got != "#ff0000" {
		t.Errorf("Red.Hex() = %q", got)
	}
	if got := ForestGreen.Hex(); got != "#228b22" {
		t.Errorf("ForestGreen.Hex() = %q", got)
	}
}

func TestPaperAssignments(t *testing.T) {
	// The explicit colour assignments from the paper.
	checks := map[string]Color{
		"PI_Read":      Red,
		"PI_Write":     Green,
		"PI_Broadcast": ForestGreen,
		"PI_Gather":    IndianRed,
		"PI_Configure": Bisque,
		"Compute":      Gray,
	}
	for name, want := range checks {
		if got := StateColor(name); got != want {
			t.Errorf("StateColor(%q) = %v, want %v", name, got, want)
		}
	}
	if EventColor != Yellow {
		t.Errorf("EventColor = %v, want yellow", EventColor)
	}
	if ArrowColor != White {
		t.Errorf("ArrowColor = %v, want white", ArrowColor)
	}
}

func TestFirstPrincipleSameCategorySimilarColours(t *testing.T) {
	// All input states must be red-dominant, all output states
	// green-dominant: the "at least recognise input vs output at a glance"
	// property promised by the paper.
	for name, cat := range Categories {
		c, ok := StateColors[name]
		if !ok {
			continue // bubble-only functions have no state colour
		}
		switch cat {
		case Input:
			if c.R <= c.G {
				t.Errorf("%s is Input but colour %v is not red-dominant", name, c)
			}
		case Output:
			if c.G <= c.R {
				t.Errorf("%s is Output but colour %v is not green-dominant", name, c)
			}
		}
	}
}

func TestSecondPrincipleCollectiveShades(t *testing.T) {
	// Collective greens are darker shades of the point-to-point green.
	lum := func(c Color) int { return int(c.R) + int(c.G) + int(c.B) }
	if lum(StateColor("PI_Broadcast")) >= lum(StateColor("PI_Write")) {
		t.Error("PI_Broadcast should be a darker shade than PI_Write")
	}
	if lum(StateColor("PI_Scatter")) >= lum(StateColor("PI_Write")) {
		t.Error("PI_Scatter should be a darker shade than PI_Write")
	}
	// Collective reds are distinct, desaturated shades of the
	// point-to-point red (IndianRed per the paper), still red-dominant.
	sat := func(c Color) int {
		max, min := int(c.R), int(c.R)
		for _, v := range []int{int(c.G), int(c.B)} {
			if v > max {
				max = v
			}
			if v < min {
				min = v
			}
		}
		return max - min
	}
	for _, name := range []string{"PI_Gather", "PI_Reduce"} {
		c := StateColor(name)
		if c == StateColor("PI_Read") {
			t.Errorf("%s must be a different shade from PI_Read", name)
		}
		if sat(c) >= sat(StateColor("PI_Read")) {
			t.Errorf("%s should be a desaturated shade of red", name)
		}
	}
}

func TestUnknownDefaults(t *testing.T) {
	if got := StateColor("NoSuchState"); got != Gray {
		t.Errorf("unknown state colour = %v, want gray", got)
	}
	if got := CategoryOf("NoSuchFunc"); got != Other {
		t.Errorf("unknown category = %v, want Other", got)
	}
}

func TestEveryDisplayableStateHasCategory(t *testing.T) {
	for name := range StateColors {
		if _, ok := Categories[name]; !ok {
			t.Errorf("state %q has a colour but no category", name)
		}
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{Output: "output", Input: "input", Admin: "admin", Other: "other"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(c), got, want)
		}
	}
	if got := Category(9).String(); got != "Category(9)" {
		t.Errorf("invalid category String() = %q", got)
	}
}
