// Package colors implements the paper's colour plan (Section III.A): Pilot
// functions are split into output, input, administrative, and other
// categories; functions in a category share similar colours, and within a
// category light shades mark simple channel I/O while dark shades mark
// collective operations. Red is the input theme ("red" ~ "read", red means
// stop — reads always block) and green the output theme (green means go —
// a write signals a waiting reader).
//
// This package is the Go equivalent of the colour-assignment header file
// the paper describes: change the tables here and rebuild to retheme the
// visual log.
package colors

import "fmt"

// Category classifies a Pilot function for colouring (Section III.A).
type Category uint8

// Function categories.
const (
	// Output covers message-producing functions (PI_Write and the
	// collective output operations).
	Output Category = iota
	// Input covers message-consuming functions (PI_Read, collective input
	// operations, and PI_Select, which blocks like a read).
	Input
	// Admin covers non-I/O lifecycle functions (PI_Configure phase, the
	// Compute state between PI_StartAll and PI_StopMain).
	Admin
	// Other covers functions too minor to display as states; they appear
	// only as event bubbles, if at all.
	Other
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Output:
		return "output"
	case Input:
		return "input"
	case Admin:
		return "admin"
	case Other:
		return "other"
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Color is a named RGB colour. Names follow the X11/Jumpshot palette the
// paper uses (red, green, ForestGreen, IndianRed, bisque, gray...).
type Color struct {
	Name    string
	R, G, B uint8
}

// Hex renders the colour as an SVG/CSS hex string.
func (c Color) Hex() string { return fmt.Sprintf("#%02x%02x%02x", c.R, c.G, c.B) }

// The palette. The paper's explicit assignments: PI_Read red, PI_Write
// green, PI_Broadcast ForestGreen, PI_Gather IndianRed, Configure bisque,
// Compute gray, bubbles yellow, arrows white.
var (
	Red         = Color{"red", 0xff, 0x00, 0x00}
	Green       = Color{"green", 0x00, 0xff, 0x00} // X11 green, as in Jumpshot's palette
	ForestGreen = Color{"ForestGreen", 0x22, 0x8b, 0x22}
	DarkGreen   = Color{"DarkGreen", 0x00, 0x64, 0x00}
	IndianRed   = Color{"IndianRed", 0xcd, 0x5c, 0x5c}
	Firebrick   = Color{"firebrick", 0xb2, 0x22, 0x22}
	Salmon      = Color{"salmon", 0xfa, 0x80, 0x72}
	Bisque      = Color{"bisque", 0xff, 0xe4, 0xc4}
	Gray        = Color{"gray", 0x80, 0x80, 0x80}
	Yellow      = Color{"yellow", 0xff, 0xff, 0x00}
	White       = Color{"white", 0xff, 0xff, 0xff}
	Black       = Color{"black", 0x00, 0x00, 0x00}
	Orange      = Color{"orange", 0xff, 0xa5, 0x00}
	Magenta     = Color{"magenta", 0xff, 0x00, 0xff}
)

// StateColors maps each displayable Pilot state name to its colour.
// Light red/green = point-to-point; dark shades = collective (second
// principle of the plan).
var StateColors = map[string]Color{
	"PI_Read":      Red,
	"PI_Write":     Green,
	"PI_Broadcast": ForestGreen,
	"PI_Scatter":   DarkGreen,
	"PI_Gather":    IndianRed,
	"PI_Reduce":    Firebrick,
	"PI_Select":    Salmon,
	"PI_Configure": Bisque,
	"Compute":      Gray,
}

// EventColor is the colour for solo-event bubbles (message arrivals,
// PI_Log, PI_TrySelect and friends).
var EventColor = Yellow

// FaultEventColor marks injected-fault bubbles: orange is reserved so a
// stall, delay, crash or clock jump planted by an mpi.FaultPlan stands
// apart from ordinary yellow events in the timeline.
var FaultEventColor = Orange

// DeadlockEventColor marks the detector's deadlock report bubble on the
// service timeline — the one event you most want to be able to point at.
var DeadlockEventColor = Magenta

// ArrowColor is the colour for message arrows between timelines.
var ArrowColor = White

// Categories maps Pilot function names to their category.
var Categories = map[string]Category{
	"PI_Write":          Output,
	"PI_Broadcast":      Output,
	"PI_Scatter":        Output,
	"PI_Read":           Input,
	"PI_Gather":         Input,
	"PI_Reduce":         Input,
	"PI_Select":         Input,
	"PI_Configure":      Admin,
	"Compute":           Admin,
	"PI_ChannelHasData": Other,
	"PI_TrySelect":      Other,
	"PI_Log":            Other,
	"PI_StartTime":      Other,
	"PI_EndTime":        Other,
	"PI_SetName":        Other,
	"PI_Abort":          Other,
	"FaultInjected":     Other,
	"Deadlock":          Other,
}

// StateColor returns the colour assigned to a state name, defaulting to
// gray for unknown names so a new state is visible rather than invisible.
func StateColor(name string) Color {
	if c, ok := StateColors[name]; ok {
		return c
	}
	return Gray
}

// CategoryOf returns the category of a function name, defaulting to Other.
func CategoryOf(name string) Category {
	if c, ok := Categories[name]; ok {
		return c
	}
	return Other
}
