#include "textflag.h"

// func getfp() unsafe.Pointer
TEXT ·getfp(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ BP, ret+0(FP)
	RET
