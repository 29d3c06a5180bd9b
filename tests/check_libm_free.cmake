# The sensor and its noise generator must import no libm transcendental:
# a raw mosaic may depend on the source alone, not on the libm build.
# Runs `nm -u -A` on the static library and fails if any of the named
# members has an undefined log / exp / pow / sin / cos / sincos symbol
# (float, long double and __*_finite variants included, plus their
# log1p / log2 / log10 / exp2 / expm1 / tan kin). sqrt is allowed: IEEE
# rounds it correctly, and compilers inline it as an instruction with a
# libm fallback only for negative inputs.
#
# Expected -D variables: NM (the nm executable), LIBRARY (a static
# library), MEMBERS (a comma-separated list of object names, e.g.
# sensor.cpp.o,noise.cpp.o).
foreach(var NM LIBRARY MEMBERS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_libm_free: ${var} not set")
  endif()
endforeach()
string(REPLACE "," ";" MEMBERS "${MEMBERS}")

execute_process(
  COMMAND "${NM}" -u -A "${LIBRARY}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE listing
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_libm_free: ${NM} failed on ${LIBRARY}: ${err}")
endif()
string(REPLACE "\n" ";" lines "${listing}")

set(transcendental
  "^_*(log|log1p|log2|log10|exp|exp2|expm1|pow|sin|cos|tan|sincos)(f|l)?(_finite)?(@.*)?$")
set(failures "")
foreach(member IN LISTS MEMBERS)
  # nm -A prefixes each line with "<library>:<member>:". A member with no
  # undefined symbols prints nothing, so presence is checked below.
  set(imports 0)
  foreach(line IN LISTS lines)
    if(line MATCHES ":${member}:[ \t]+U[ \t]+(.+)$")
      math(EXPR imports "${imports} + 1")
      set(symbol "${CMAKE_MATCH_1}")
      if(symbol MATCHES "${transcendental}")
        list(APPEND failures "${member} imports ${symbol}")
      endif()
    endif()
  endforeach()
  message(STATUS "check_libm_free: ${member}: ${imports} undefined symbols checked")
endforeach()

# Every named member must exist, or the check would pass vacuously.
execute_process(
  COMMAND "${NM}" -A "${LIBRARY}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE all_symbols)
foreach(member IN LISTS MEMBERS)
  string(FIND "${all_symbols}" ":${member}:" at)
  if(at EQUAL -1)
    list(APPEND failures "${member} is not a member of ${LIBRARY}")
  endif()
endforeach()

if(failures)
  string(REPLACE ";" "\n  " report "${failures}")
  message(FATAL_ERROR "check_libm_free FAILED:\n  ${report}")
endif()
message(STATUS "check_libm_free OK — no libm transcendental in ${MEMBERS}")
