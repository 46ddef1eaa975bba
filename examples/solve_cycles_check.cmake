# Checks that `sysdp_tool solve` prints the same `cycles` line for one
# problem under every engine and optimizer level: the compiled routes
# report the array's cycles, not the (optimized) tape's level count.
#
#   cmake -DTOOL=<path to sysdp_tool> -DWORKDIR=<scratch dir> \
#         -P solve_cycles_check.cmake
foreach(kind chain multistage)
  if(kind STREQUAL "chain")
    set(gen_args gen chain 12 5)
  else()
    set(gen_args gen multistage 6 4 3)
  endif()
  set(problem "${WORKDIR}/solve_cycles_${kind}.txt")
  execute_process(COMMAND "${TOOL}" ${gen_args} OUTPUT_FILE "${problem}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sysdp_tool ${gen_args} failed (${rc})")
  endif()
  set(reference "")
  foreach(route "--engine=modular" "--engine=compiled"
          "--engine=compiled;--opt=2")
    execute_process(COMMAND "${TOOL}" solve "${problem}" ${route}
                    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "sysdp_tool solve ${kind} ${route} failed (${rc})")
    endif()
    string(REGEX MATCH "cycles *: *[0-9]+" line "${out}")
    if(line STREQUAL "")
      message(FATAL_ERROR "no cycles line for ${kind} ${route}:\n${out}")
    endif()
    if(reference STREQUAL "")
      set(reference "${line}")
    elseif(NOT line STREQUAL reference)
      message(FATAL_ERROR
        "${kind} ${route} prints '${line}', --engine=modular '${reference}'")
    endif()
  endforeach()
  message(STATUS "${kind}: ${reference} under every route")
endforeach()
