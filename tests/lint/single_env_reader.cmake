# Single env-knob reader: fails when `getenv(` appears in src/, include/,
# bench/ or examples/ anywhere but src/core/env.cpp. Every FBDCSIM_* knob
# goes through core/env.h, which gives each malformed value one diagnostic
# and one documented default (README "Environment knobs"); a second reader
# would bring back its own rules.
#
# Invoked by the env_single_reader ctest; expects -DROOT=<source tree>.

cmake_minimum_required(VERSION 3.16)

set(allowed "${ROOT}/src/core/env.cpp")
file(GLOB_RECURSE sources LIST_DIRECTORIES false
  "${ROOT}/src/*" "${ROOT}/include/*" "${ROOT}/bench/*" "${ROOT}/examples/*")
if(NOT allowed IN_LIST sources)
  message(FATAL_ERROR "no ${allowed}: is ROOT the source tree? (ROOT=${ROOT})")
endif()

set(offenders "")
foreach(path IN LISTS sources)
  if(path STREQUAL allowed)
    continue()
  endif()
  file(STRINGS "${path}" hits REGEX "getenv\\(")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    string(APPEND offenders "  ${path}: ${hit}\n")
  endforeach()
endforeach()

if(offenders)
  message(FATAL_ERROR "getenv( outside src/core/env.cpp; read the knob through "
    "core::read_env (include/fbdcsim/core/env.h) instead:\n${offenders}")
endif()
list(LENGTH sources n)
message(STATUS "single env-knob reader: ${n} files checked")
